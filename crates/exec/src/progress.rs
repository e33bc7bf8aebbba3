//! Live query observability: the wait-state taxonomy and the per-pipeline
//! progress registry behind `jsys.ash` and `jsys.query_progress`.
//!
//! The profiler ([`crate::profile`]) and tracer ([`crate::trace`]) answer
//! *where did the time go* only after a query finishes — and the tracer is
//! further confined to a private scoped worker team, so a pooled serving
//! workload is invisible to it. This module is the always-on counterpart:
//!
//! * Every [`QueryContext`](crate::context::QueryContext) carries a
//!   **wait-state stamp** — one relaxed `AtomicU64` written at boundaries
//!   that already exist (admission enqueue/grant, pipeline submit, morsel
//!   claim, worker drain, spill I/O). An external sampler reads the
//!   stamp every ~10 ms; between stamps nothing on the hot path is touched.
//! * Every pooled pipeline registers a [`PipelineProgress`] here: relaxed
//!   per-operator row/batch counters plus a done/total task cursor,
//!   readable mid-flight. The morsel loop ([`crate::morsel`]) adds each
//!   worker's private counts after every morsel, so the counters are
//!   advisory while the pipeline runs (they trail the workers by at most a
//!   morsel) and exact once it retires — the same contract as the profiler.
//!
//! The pipeline's label and the planner's row estimate arrive with the
//! submit call (a [`PipelineLabel`](crate::morsel::PipelineLabel) argument
//! of `run_pipeline_obs`), so a pipeline can only ever be reported under
//! the name its own submitter gave it; one submitted without a label is
//! `"pipeline"` with no estimate.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::context::QueryContext;
use crate::profile::WorkerProf;

/// What a query is doing (or waiting on) right now. Stamped into
/// [`QueryContext`] with relaxed stores at existing phase boundaries and
/// read by the ASH sampler; the variants are the taxonomy the paper's
/// partition-or-not question ultimately decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitState {
    /// Not executing pipeline work: parsing, planning, result encoding,
    /// or idle between statements.
    Other = 0,
    /// Blocked in the admission controller's ticket queue.
    AdmissionQueued = 1,
    /// Pipeline submitted to the shared pool, no morsel claimed yet.
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

    /// Derive the CPU flavor of a pipeline from its label. Partitioning
    /// wins over build/probe because partitioning pipelines are labeled
    /// `"... partition (build)"` / `"... partition (probe)"` — the paper's
    /// taxonomy counts both passes as partitioning work.
    pub fn from_pipeline_label(label: &str) -> WaitState {
        let l = label.to_ascii_lowercase();
        if l.contains("partition") {
            WaitState::CpuPartition
        } else if l.contains("build") {
            WaitState::CpuBuild
        } else if l.contains("probe") {
            WaitState::CpuProbe
        } else {
            WaitState::CpuScan
        }
    }
}

/// Mid-flight row/batch counters for one pipeline stage (the source, one
/// interior operator, or the sink). All relaxed; advisory until the
/// pipeline retires.
#[derive(Debug, Default)]
pub struct StageProgress {
    pub batches: AtomicU64,
    pub rows_in: AtomicU64,
    pub rows_out: AtomicU64,
}

impl StageProgress {
    fn add(&self, batches: u64, rows_in: u64, rows_out: u64) {
        self.batches.fetch_add(batches, Ordering::Relaxed);
        self.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out, Ordering::Relaxed);
    }
}

/// One live (or just-retired) pipeline: identity, label-derived CPU wait
/// state, task cursor mirror, and per-stage counters.
#[derive(Debug)]
pub struct PipelineProgress {
    /// Process-wide query serial (see `QueryContext::query_id`).
    pub query_id: u64,
    /// Connection id of the owning session (0 when embedded).
    pub conn: u64,
    /// Pipeline label, e.g. `"BHJ probe"`; `"pipeline"` when unlabeled.
    pub label: String,
    /// CPU wait-state flavor derived from the label at registration.
    pub cpu_state: WaitState,
    /// Planner cardinality estimate for this pipeline's source rows
    /// (0 = no estimate). From the adaptive join's cost model.
    pub est_rows: u64,
    /// Total morsels the source exposes.
    pub tasks_total: u64,
    /// Morsels fully run so far.
    pub tasks_done: AtomicU64,
    /// Source stage: `rows_out` = rows emitted into the chain.
    pub source: StageProgress,
    /// Interior operators, front to back.
    pub ops: Vec<StageProgress>,
    /// Sink stage: `rows_in` = rows consumed by the pipeline breaker.
    pub sink: StageProgress,
    /// Set when the pipeline retires; retired entries are pruned from the
    /// registry but snapshots taken in between still see them complete.
    pub done: AtomicBool,
    /// Owning query context, for live spill/wait readings. Weak so a
    /// lingering snapshot cannot keep a session's context alive.
    ctx: Weak<QueryContext>,
}

impl PipelineProgress {
    pub fn new(
        ctx: &Arc<QueryContext>,
        label: String,
        est_rows: u64,
        n_ops: usize,
        tasks_total: u64,
    ) -> PipelineProgress {
        PipelineProgress {
            query_id: ctx.query_id(),
            conn: ctx.conn_id(),
            cpu_state: WaitState::from_pipeline_label(&label),
            label,
            est_rows,
            tasks_total,
            tasks_done: AtomicU64::new(0),
            source: StageProgress::default(),
            ops: (0..n_ops).map(|_| StageProgress::default()).collect(),
            sink: StageProgress::default(),
            done: AtomicBool::new(false),
            ctx: Arc::downgrade(ctx),
        }
    }

    /// Add one worker's private counts since its last publication (the
    /// morsel loop calls this after every morsel of a pooled pipeline).
    pub(crate) fn add(&self, w: &WorkerProf) {
        self.tasks_done.fetch_add(w.morsels, Ordering::Relaxed);
        self.source.add(w.src_batches, 0, w.src_rows);
        for (slot, stage) in w.ops.iter().zip(&self.ops) {
            stage.add(slot.batches, slot.rows_in, slot.rows_out);
        }
        self.sink.add(w.sink_batches, w.sink_rows, 0);
    }

    /// The owning query's context, if the session still holds it.
    pub fn context(&self) -> Option<Arc<QueryContext>> {
        self.ctx.upgrade()
    }
}

/// Point-in-time copy of one pipeline stage, for `jsys.query_progress`.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Stage name: `"source"`, `"op0"`, `"op1"`, ..., `"sink"`.
    pub stage: String,
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Point-in-time copy of one live pipeline, one entry per stage.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    pub query_id: u64,
    pub conn: u64,
    pub label: String,
    pub est_rows: u64,
    pub tasks_total: u64,
    pub tasks_done: u64,
    /// Spill bytes (write + read) of the owning query so far.
    pub spill_bytes: u64,
    pub stages: Vec<StageSnapshot>,
}

impl PipelineSnapshot {
    /// Estimated-vs-actual fraction: source rows emitted so far over the
    /// planner's estimate; falls back to the morsel cursor when the
    /// planner had no estimate. Clamped to 1.0 — estimates can be wrong,
    /// progress cannot exceed done.
    pub fn fraction(&self) -> f64 {
        let actual = self
            .stages
            .first()
            .map(|s| s.rows_out)
            .unwrap_or(self.tasks_done);
        if self.est_rows > 0 {
            (actual as f64 / self.est_rows as f64).min(1.0)
        } else if self.tasks_total > 0 {
            self.tasks_done as f64 / self.tasks_total as f64
        } else {
            1.0
        }
    }
}

/// Process-wide registry of live pooled pipelines. One mutex, touched once
/// per pipeline at submit and once at retire — never per morsel.
#[derive(Debug, Default)]
pub struct ProgressRegistry {
    live: Mutex<Vec<Arc<PipelineProgress>>>,
}

impl ProgressRegistry {
    /// Register a freshly submitted pipeline.
    pub fn register(&self, p: Arc<PipelineProgress>) {
        self.live.lock().unwrap_or_else(|e| e.into_inner()).push(p);
    }

    /// Mark a pipeline retired and remove it from the live list.
    pub fn retire(&self, p: &Arc<PipelineProgress>) {
        p.done.store(true, Ordering::Relaxed);
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

    /// Point-in-time copy of every live pipeline, one stage row each.
    pub fn snapshot(&self) -> Vec<PipelineSnapshot> {
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner()).clone();
        live.iter()
            .map(|p| {
                let mut stages = Vec::with_capacity(p.ops.len() + 2);
                stages.push(StageSnapshot {
                    stage: "source".to_string(),
                    batches: p.source.batches.load(Ordering::Relaxed),
                    rows_in: p.source.rows_in.load(Ordering::Relaxed),
                    rows_out: p.source.rows_out.load(Ordering::Relaxed),
                });
                for (i, op) in p.ops.iter().enumerate() {
                    stages.push(StageSnapshot {
                        stage: format!("op{i}"),
                        batches: op.batches.load(Ordering::Relaxed),
                        rows_in: op.rows_in.load(Ordering::Relaxed),
                        rows_out: op.rows_out.load(Ordering::Relaxed),
                    });
                }
                stages.push(StageSnapshot {
                    stage: "sink".to_string(),
                    batches: p.sink.batches.load(Ordering::Relaxed),
                    rows_in: p.sink.rows_in.load(Ordering::Relaxed),
                    rows_out: p.sink.rows_out.load(Ordering::Relaxed),
                });
                let spill_bytes = p
                    .context()
                    .map(|c| c.spill_write_bytes() + c.spill_read_bytes())
                    .unwrap_or(0);
                PipelineSnapshot {
                    query_id: p.query_id,
                    conn: p.conn,
                    label: p.label.clone(),
                    est_rows: p.est_rows,
                    tasks_total: p.tasks_total,
                    tasks_done: p.tasks_done.load(Ordering::Relaxed),
                    spill_bytes,
                    stages,
                }
            })
            .collect()
    }

    /// Sum of source rows emitted across the live pipelines of `query_id`
    /// — the "rows so far" column of an ASH sample.
    pub fn rows_so_far(&self, query_id: u64) -> u64 {
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        live.iter()
            .filter(|p| p.query_id == query_id)
            .map(|p| p.source.rows_out.load(Ordering::Relaxed))
            .sum()
    }

    /// Label of the most recently registered live pipeline of `query_id`,
    /// i.e. what the query is running right now.
    pub fn current_pipeline(&self, query_id: u64) -> Option<String> {
        let live = self.live.lock().unwrap_or_else(|e| e.into_inner());
        live.iter()
            .rev()
            .find(|p| p.query_id == query_id)
            .map(|p| p.label.clone())
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

    #[test]
    fn cpu_flavor_from_labels() {
        assert_eq!(
            WaitState::from_pipeline_label("BHJ build"),
            WaitState::CpuBuild
        );
        assert_eq!(
            WaitState::from_pipeline_label("RJ partition (build)"),
            WaitState::CpuPartition
        );
        assert_eq!(
            WaitState::from_pipeline_label("HHJ partition probe"),
            WaitState::CpuPartition
        );
        assert_eq!(
            WaitState::from_pipeline_label("BHJ probe (mark)"),
            WaitState::CpuProbe
        );
        assert_eq!(WaitState::from_pipeline_label("output"), WaitState::CpuScan);
        assert_eq!(
            WaitState::from_pipeline_label("aggregate"),
            WaitState::CpuScan
        );
    }

    #[test]
    fn registry_register_snapshot_retire() {
        let reg = ProgressRegistry::default();
        let ctx = QueryContext::unbounded();
        ctx.arm();
        let p = Arc::new(PipelineProgress::new(&ctx, "BHJ probe".into(), 100, 1, 8));
        reg.register(Arc::clone(&p));
        let mut w = WorkerProf::new(1);
        w.morsels = 3;
        w.src_batches = 1;
        w.src_rows = 50;
        w.ops[0].batches = 1;
        w.ops[0].rows_in = 50;
        w.ops[0].rows_out = 40;
        w.sink_batches = 1;
        w.sink_rows = 40;
        p.add(&w);

        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        let s = &snap[0];
        assert_eq!(s.label, "BHJ probe");
        assert_eq!(s.tasks_done, 3);
        assert_eq!(s.tasks_total, 8);
        assert_eq!(s.stages.len(), 3);
        assert_eq!(s.stages[0].stage, "source");
        assert_eq!(s.stages[0].rows_out, 50);
        assert_eq!(s.stages[1].stage, "op0");
        assert_eq!(s.stages[1].rows_in, 50);
        assert_eq!(s.stages[1].rows_out, 40);
        assert_eq!(s.stages[2].stage, "sink");
        assert_eq!(s.stages[2].rows_in, 40);
        assert!((s.fraction() - 0.5).abs() < 1e-9, "50/100 est fraction");
        assert_eq!(reg.rows_so_far(p.query_id), 50);
        assert_eq!(
            reg.current_pipeline(p.query_id).as_deref(),
            Some("BHJ probe")
        );

        reg.retire(&p);
        assert!(reg.is_empty());
        assert!(p.done.load(Ordering::Relaxed));
    }

    #[test]
    fn fraction_falls_back_to_cursor_without_estimate() {
        let ctx = QueryContext::unbounded();
        let p = Arc::new(PipelineProgress::new(&ctx, "scan".into(), 0, 0, 10));
        p.tasks_done.store(4, Ordering::Relaxed);
        let reg = ProgressRegistry::default();
        reg.register(Arc::clone(&p));
        let s = &reg.snapshot()[0];
        assert!((s.fraction() - 0.4).abs() < 1e-9);
    }
}
