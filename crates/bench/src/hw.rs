//! Host hardware detection + a memory-bandwidth probe (Table 2's columns).

use joinstudy_exec::pmu;
use std::time::Instant;

fn cpuinfo_field(content: &str, key: &str) -> Option<String> {
    content
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn read_cache_kib(index: usize) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let raw = std::fs::read_to_string(path).ok()?;
    let raw = raw.trim();
    if let Some(k) = raw.strip_suffix('K') {
        k.parse().ok()
    } else if let Some(m) = raw.strip_suffix('M') {
        m.parse::<usize>().ok().map(|v| v * 1024)
    } else {
        raw.parse().ok()
    }
}

fn cache_level_and_type(index: usize) -> (Option<u32>, String) {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level"))
        .ok()
        .and_then(|s| s.trim().parse().ok());
    let ctype = std::fs::read_to_string(format!("{base}/type"))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    (level, ctype)
}

/// Single-threaded streaming-copy bandwidth over a buffer well beyond LLC.
pub fn measure_copy_bandwidth() -> f64 {
    const BYTES: usize = 256 * 1024 * 1024;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    // Warm up page tables.
    dst.copy_from_slice(&src);
    let start = Instant::now();
    let reps = 4;
    for _ in 0..reps {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
    }
    let secs = start.elapsed().as_secs_f64();
    // Copy touches 2 × BYTES per rep (read + write).
    (2 * reps * BYTES) as f64 / secs / (1u64 << 30) as f64
}

/// Count NUMA nodes via `/sys/devices/system/node/node<N>` entries,
/// defaulting to 1 where the hierarchy is absent (non-Linux, or kernels
/// built without NUMA).
fn numa_node_count() -> usize {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/node") else {
        return 1;
    };
    let n = entries
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.strip_prefix("node")
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        })
        .count();
    n.max(1)
}

/// Table 2's "this host" column: (property, detected value) in the paper's
/// row order, `?` where the host does not say.
pub fn describe() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| cpuinfo_field(&cpuinfo, key);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sockets: std::collections::HashSet<&str> = cpuinfo
        .lines()
        .filter(|l| l.starts_with("physical id"))
        .collect();
    let cores: usize = field("cpu cores")
        .and_then(|v| v.parse().ok())
        .unwrap_or(threads);
    let ghz = field("cpu MHz").and_then(|v| v.parse().ok()).unwrap_or(0.0) / 1000.0;
    let model = field("model name").unwrap_or_else(|| "unknown".into());

    let (mut l1d, mut l2, mut llc) = (None, None, None);
    for idx in 0..6 {
        let (level, ctype) = cache_level_and_type(idx);
        let size = read_cache_kib(idx);
        match (level, ctype.as_str()) {
            (Some(1), "Data") => l1d = size,
            (Some(2), _) => l2 = size,
            (Some(3), _) | (Some(4), _) => llc = size.or(llc),
            _ => {}
        }
    }
    let known = |v: Option<String>| v.unwrap_or_else(|| "?".into());
    let kib = |v: Option<usize>| known(v.map(|k| k.to_string()));
    let pmu = if pmu::probe() {
        "available"
    } else {
        "unavailable"
    };
    vec![
        (
            "vendor",
            field("vendor_id").unwrap_or_else(|| "unknown".into()),
        ),
        ("model", model.chars().take(26).collect()),
        ("sockets", sockets.len().max(1).to_string()),
        ("cores (SMT)", format!("{cores} ({threads})")),
        ("clock rate [GHz]", format!("{ghz:.1}")),
        ("L1 data cache [KiB]", kib(l1d)),
        ("L2 cache [KiB]", kib(l2)),
        ("LLC cache [KiB]", kib(llc)),
        (
            "DRAM speed [GiB/s]",
            format!("{:.1} (copy)", measure_copy_bandwidth()),
        ),
        ("NUMA nodes", numa_node_count().to_string()),
        ("PMU counters", pmu.to_string()),
        (
            "perf_event_paranoid",
            known(pmu::paranoid_level().map(|l| l.to_string())),
        ),
    ]
}
