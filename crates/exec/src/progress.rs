//! Live query observability: the wait-state taxonomy and the registry of
//! running pipelines behind `jsys.ash` and `jsys.query_progress`.
//!
//! The tracer ([`crate::trace`]) answers *where did the time go* only after
//! a query finishes, and only for the one query it traces. This module is
//! the always-on counterpart:
//!
//! * Every [`QueryContext`](crate::context::QueryContext) carries a
//!   **wait-state stamp** — one relaxed `AtomicU64` written at boundaries
//!   that already exist (admission enqueue/grant, pipeline submit, morsel
//!   claim, worker drain, spill I/O). An external sampler reads the
//!   stamp every ~10 ms; between stamps nothing on the hot path is touched.
//! * The executor registers every pipeline's [`PipelineStats`] block here for
//!   as long as the pipeline runs. There is no second set of progress
//!   counters: a live reader gets the `Arc` of the very block the morsel
//!   loop adds into after every morsel and EXPLAIN ANALYZE reads at the
//!   end, so the live view and the post-mortem view cannot disagree.
//!
//! The pipeline's label and the planner's row estimate are part of the
//! block its submitter built, so a pipeline can only ever be reported under
//! the name its own submitter gave it; one submitted through
//! `run_pipeline` is `"pipeline"` with no estimate.

use std::sync::{Arc, Mutex, OnceLock};

use crate::profile::PipelineStats;

/// What a query is doing (or waiting on) right now. Stamped into
/// [`QueryContext`](crate::context::QueryContext) with relaxed stores at
/// existing phase boundaries and read by the ASH sampler; the variants are
/// the taxonomy the paper's partition-or-not question ultimately
/// decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitState {
    /// Not executing pipeline work: parsing, planning, result encoding,
    /// or idle between statements.
    Other = 0,
    /// Blocked in the admission controller's ticket queue.
    AdmissionQueued = 1,
    /// Pipeline submitted, waiting for a worker to claim its next morsel.
    PoolWait = 2,
    /// Running a hash-table build pipeline.
    CpuBuild = 3,
    /// Running a radix/hybrid partitioning pipeline (either pass).
    CpuPartition = 4,
    /// Running a probe pipeline.
    CpuProbe = 5,
    /// Running a scan/aggregate/sort/output pipeline.
    CpuScan = 6,
    /// Inside a spill-file read or write.
    SpillIo = 7,
    /// Draining a worker: operator flush + sink merge.
    Finalizing = 8,
}

/// Number of wait states (for per-state sample-count arrays).
pub const WAIT_STATE_COUNT: usize = 9;

impl WaitState {
    /// Stable lower-case name used in `jsys.ash` and the slow-query log.
    pub fn name(self) -> &'static str {
        match self {
            WaitState::Other => "other",
            WaitState::AdmissionQueued => "admission_queued",
            WaitState::PoolWait => "pool_wait",
            WaitState::CpuBuild => "cpu_build",
            WaitState::CpuPartition => "cpu_partition",
            WaitState::CpuProbe => "cpu_probe",
            WaitState::CpuScan => "cpu_scan",
            WaitState::SpillIo => "spill_io",
            WaitState::Finalizing => "finalizing",
        }
    }

    /// Decode a stamp previously stored with [`WaitState::as_u64`];
    /// unknown values decode as [`WaitState::Other`].
    pub fn from_u64(v: u64) -> WaitState {
        match v {
            1 => WaitState::AdmissionQueued,
            2 => WaitState::PoolWait,
            3 => WaitState::CpuBuild,
            4 => WaitState::CpuPartition,
            5 => WaitState::CpuProbe,
            6 => WaitState::CpuScan,
            7 => WaitState::SpillIo,
            8 => WaitState::Finalizing,
            _ => WaitState::Other,
        }
    }

    pub fn as_u64(self) -> u64 {
        self as u64
    }
}

/// Process-wide registry of live pipelines. One mutex, touched once
/// per pipeline at submit and once at retire — never per morsel.
#[derive(Debug, Default)]
pub struct ProgressRegistry {
    live: Mutex<Vec<Arc<PipelineStats>>>,
}

impl ProgressRegistry {
    /// Register a freshly submitted pipeline.
    pub fn register(&self, p: Arc<PipelineStats>) {
        self.live.lock().unwrap_or_else(|e| e.into_inner()).push(p);
    }

    /// Remove a retired pipeline from the live list. Readers that fetched
    /// it earlier keep a block whose counts are now final.
    pub fn retire(&self, p: &Arc<PipelineStats>) {
        self.live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|q| !Arc::ptr_eq(q, p));
    }

    /// Number of pipelines currently live.
    pub fn len(&self) -> usize {
        self.live.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every live pipeline's block, in registration order.
    pub fn live(&self) -> Vec<Arc<PipelineStats>> {
        self.live.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

static GLOBAL: OnceLock<ProgressRegistry> = OnceLock::new();

/// The process-wide registry read by `jsys.query_progress` and the ASH
/// sampler.
pub fn global() -> &'static ProgressRegistry {
    GLOBAL.get_or_init(ProgressRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_state_names_round_trip() {
        for v in 0..WAIT_STATE_COUNT as u64 {
            let s = WaitState::from_u64(v);
            assert_eq!(s.as_u64(), v);
            assert!(!s.name().is_empty());
        }
        // Unknown stamps decode to Other rather than panicking.
        assert_eq!(WaitState::from_u64(999), WaitState::Other);
    }
}
