//! Byte-accounting instrumentation — the portable software fallback for
//! the PCM hardware counters the paper uses for Figure 10. The *measured*
//! path exists too: [`crate::pmu`] samples real cycle/cache/TLB counters
//! via `perf_event_open` (`repro fig10 --hw`, `repro fig07`), attributed
//! to the same [`MemPhase`] taxonomy: every pipeline carries its phase
//! (`PipelineLabel::phase`). Byte accounting stays the default because it
//! works everywhere — containers and locked-down hosts routinely deny
//! `perf_event_open`.
//!
//! Every materializing primitive (partition scatter, page writes, hash-table
//! build, scans) reports the bytes it read and wrote, attributed to a
//! [`MemPhase`]. The wall-clock side is the query's own trace
//! ([`crate::trace`]): every pipeline span there carries its phase, so
//! from one pipeline's start to the next is that phase's band. From the
//! two `repro fig10` prints per-phase duration, volume and effective
//! bandwidth exactly in the shape of the paper's plot (build → partition
//! pass 1 → scan → partition pass 2 → join).
//!
//! Accounting is global and lock-free (relaxed atomics), off by default, and
//! recorded at page/batch granularity so enabling it does not distort the
//! measured run. The storage lives in the named-counter
//! [`registry`](crate::registry) (`mem.<phase>.read_bytes` /
//! `.write_bytes`, `exec.source_rows`), so callers and `jsys.metrics` see
//! the same numbers. What belongs to one query — its degradations, spill
//! traffic and spill recursions, peak memory — is counted on its
//! [`QueryContext`](crate::QueryContext), not here.
//!
//! # Ordering contract
//!
//! All counters are updated and read with `Ordering::Relaxed`. Relaxed
//! reads are only *exact* once every thread that recorded into the counter
//! is ordered before the reader. A pipeline returns only after every
//! worker drained: inline the caller did the work itself, and on a pool the
//! submitter observes retirement under the pool's state lock, which every
//! worker takes after its last step or drain — the happens-before edge that
//! makes the final `fetch_add`s visible. So post-drain reads — [`snapshot`],
//! [`take_source_rows`] after `Engine::execute` returns — are exact. A read
//! taken *while* a query is running may lag in-flight increments and is
//! advisory only.

use crate::registry::{self, Counter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Execution phases matching the legend of the paper's Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemPhase {
    /// Build-side pipeline (scan + partition of the build input).
    Build,
    /// First radix-partitioning pass over the probe side.
    PartitionPass1,
    /// Histogram scan over the pass-1 pre-partitions.
    HistogramScan,
    /// Second radix-partitioning pass (scatter to final partitions).
    PartitionPass2,
    /// Per-partition hash build + probe (the actual join).
    Join,
    /// Spill-file I/O of the out-of-core hybrid hash join: partition
    /// eviction writes and the restore/probe reads after the in-memory pass.
    Spill,
    /// Non-partitioned probe phase (BHJ) and everything else.
    #[default]
    Other,
}

impl MemPhase {
    pub const ALL: [MemPhase; 7] = [
        MemPhase::Build,
        MemPhase::PartitionPass1,
        MemPhase::HistogramScan,
        MemPhase::PartitionPass2,
        MemPhase::Join,
        MemPhase::Spill,
        MemPhase::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MemPhase::Build => "build",
            MemPhase::PartitionPass1 => "partition pass 1",
            MemPhase::HistogramScan => "scan",
            MemPhase::PartitionPass2 => "partition pass 2",
            MemPhase::Join => "join",
            MemPhase::Spill => "spill",
            MemPhase::Other => "other",
        }
    }

    /// Registry-name segment (no spaces, stable across renames of `name`).
    pub fn slug(self) -> &'static str {
        match self {
            MemPhase::Build => "build",
            MemPhase::PartitionPass1 => "partition_pass1",
            MemPhase::HistogramScan => "histogram_scan",
            MemPhase::PartitionPass2 => "partition_pass2",
            MemPhase::Join => "join",
            MemPhase::Spill => "spill",
            MemPhase::Other => "other",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            MemPhase::Build => 0,
            MemPhase::PartitionPass1 => 1,
            MemPhase::HistogramScan => 2,
            MemPhase::PartitionPass2 => 3,
            MemPhase::Join => 4,
            MemPhase::Spill => 5,
            MemPhase::Other => 6,
        }
    }
}

/// Registry-backed counter handles, resolved once per process.
struct Handles {
    phases: Vec<(Arc<Counter>, Arc<Counter>)>, // (read, write) by phase index
    source_rows: Arc<Counter>,
}

static HANDLES: OnceLock<Handles> = OnceLock::new();

fn handles() -> &'static Handles {
    HANDLES.get_or_init(|| {
        let reg = registry::global();
        Handles {
            phases: MemPhase::ALL
                .iter()
                .map(|p| {
                    (
                        reg.counter(&format!("mem.{}.read_bytes", p.slug())),
                        reg.counter(&format!("mem.{}.write_bytes", p.slug())),
                    )
                })
                .collect(),
            source_rows: reg.counter("exec.source_rows"),
        }
    })
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn byte accounting on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether accounting is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero the byte counters. Source rows and unrelated registry metrics are
/// untouched (see [`reset_all`]).
pub fn reset() {
    let h = handles();
    for (r, w) in &h.phases {
        r.reset();
        w.reset();
    }
}

/// Full reset for test isolation: [`reset`] plus the source-row counter and
/// *every* other counter in the global registry (`pmu.*` and `simd.*`
/// included). Tests sharing a process — in particular the single-threaded
/// CI job, where test order is deterministic and bleed is reproducible —
/// call this instead of [`reset`] so no counter carries over between tests.
///
/// This is a **test/bench-only** hook: it zeroes process-global state, so
/// calling it while another session is executing silently corrupts that
/// session's counters. The serving layer never calls it; results are
/// per-query (profiles, traces, spill counters on the [`QueryContext`])
/// precisely so concurrent sessions need no global reset. A debug build
/// asserts that no pooled pipeline is in flight.
pub fn reset_all() {
    debug_assert_eq!(
        crate::progress::RUNNING.load(Ordering::Relaxed),
        0,
        "metrics::reset_all() while queries are executing on a shared \
         worker pool — it would corrupt their counters"
    );
    registry::global().reset_all();
    reset();
}

/// Record `bytes` read during `phase`. No-op when accounting is off.
#[inline]
pub fn record_read(phase: MemPhase, bytes: u64) {
    if enabled() {
        handles().phases[phase.index()].0.add(bytes);
    }
}

/// Record `bytes` written during `phase`. No-op when accounting is off.
#[inline]
pub fn record_write(phase: MemPhase, bytes: u64) {
    if enabled() {
        handles().phases[phase.index()].1.add(bytes);
    }
}

/// Per-phase read/write byte totals since the last [`reset`]. Exact only
/// post-drain (see the module-level ordering contract).
pub fn snapshot() -> Vec<(MemPhase, u64, u64)> {
    let h = handles();
    MemPhase::ALL
        .iter()
        .map(|&p| {
            let (r, w) = &h.phases[p.index()];
            (p, r.get(), w.get())
        })
        .collect()
}

/// Count `rows` scanned by a pipeline source (the paper's throughput
/// denominator, footnote 5: "the sum of all tuples counted at the pipeline
/// sources"). Always counted — a single relaxed atomic add per morsel.
#[inline]
pub fn add_source_rows(rows: u64) {
    handles().source_rows.add(rows);
}

/// Read and reset the source-row counter. Exact only post-drain (see the
/// module-level ordering contract).
pub fn take_source_rows() -> u64 {
    handles().source_rows.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metrics are global state; run the whole lifecycle in one test to avoid
    // cross-test interference under the parallel test runner.
    #[test]
    fn lifecycle_record_snapshot_reset() {
        set_enabled(true);
        reset_all();
        record_read(MemPhase::Build, 100);
        record_write(MemPhase::Build, 50);
        record_write(MemPhase::PartitionPass1, 7);

        let snap = snapshot();
        let build = snap.iter().find(|(p, _, _)| *p == MemPhase::Build).unwrap();
        assert_eq!((build.1, build.2), (100, 50));
        let p1 = snap
            .iter()
            .find(|(p, _, _)| *p == MemPhase::PartitionPass1)
            .unwrap();
        assert_eq!((p1.1, p1.2), (0, 7));

        // The registry sees the same counters under their flat names.
        let reg = crate::registry::global();
        assert_eq!(reg.counter("mem.build.read_bytes").get(), 100);
        assert_eq!(reg.counter("mem.partition_pass1.write_bytes").get(), 7);

        // Disabled recording is a no-op.
        set_enabled(false);
        record_read(MemPhase::Build, 999);
        let snap2 = snapshot();
        let build2 = snap2
            .iter()
            .find(|(p, _, _)| *p == MemPhase::Build)
            .unwrap();
        assert_eq!(build2.1, 100);

        set_enabled(true);
        reset();
        let snap3 = snapshot();
        assert!(snap3.iter().all(|(_, r, w)| *r == 0 && *w == 0));

        // reset_all additionally clears source rows (reset does not).
        // Parallel tests may scan concurrently, so compare against a large
        // sentinel instead of exact values.
        const SENTINEL: u64 = 1 << 40;
        add_source_rows(SENTINEL);
        reset();
        assert!(take_source_rows() >= SENTINEL, "reset leaves source rows");
        add_source_rows(SENTINEL);
        reset_all();
        assert!(
            take_source_rows() < SENTINEL,
            "reset_all clears source rows"
        );
        set_enabled(false);
    }

    #[test]
    fn phase_names_cover_fig10_legend() {
        let names: Vec<&str> = MemPhase::ALL.iter().map(|p| p.name()).collect();
        for expected in [
            "build",
            "partition pass 1",
            "scan",
            "partition pass 2",
            "join",
        ] {
            assert!(names.contains(&expected), "missing phase {expected}");
        }
    }

    #[test]
    fn slugs_are_registry_safe() {
        for p in MemPhase::ALL {
            assert!(
                p.slug()
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "slug {:?} has characters outside [A-Za-z0-9_]",
                p.slug()
            );
        }
    }
}
