//! What the numbers were measured on: the host fingerprint printed with
//! every result, and the process-level readings (peak RSS, CPU time).

use crate::json::Json;
use std::time::Instant;

/// Engine workers for every workload: two, or one on a single-core host.
/// Fixed, not "all cores", so a result is comparable across hosts that
/// differ only in core count.
pub fn threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sequential copy bandwidth in GiB/s: the median of a few 64 MiB
/// `copy_from_slice` passes. Times from different hosts can be put on one
/// scale by it, as the paper's Table 2 does for its three machines.
pub fn copy_bandwidth_gib_s() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(BYTES as f64 / (1u64 << 30) as f64 / t.elapsed().as_secs_f64());
    }
    crate::stats::median(&rates)
}

pub fn fingerprint() -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads() as f64)),
        (
            "llc_bytes",
            Json::Num(joinstudy_core::cost::detect_llc_bytes() as f64),
        ),
        ("copy_gib_s", Json::Num(copy_bandwidth_gib_s())),
        (
            "simd",
            Json::Str(joinstudy_core::simd::active().name().to_string()),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`,
/// which is in kB) in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    kib().map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this process, all threads, including ones
/// that already exited. `/proc/self/stat` counts in clock ticks, which are
/// 1/100 s on every Linux the container image targets.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may contain spaces; fields are counted after its
    // closing parenthesis, where field 3 (state) comes first.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_S,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        assert!((1..=2).contains(&threads()));
        assert!(peak_rss_mib() > 1.0);
        let before = process_cpu_s();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(31).wrapping_add(7);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() >= before + 0.03);
    }
}
