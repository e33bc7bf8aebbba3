//! Live query observability: the wait-state taxonomy behind `jsys.ash`,
//! and the one record of a query's time.
//!
//! * Every [`QueryContext`](crate::context::QueryContext) carries a
//!   **wait-state stamp** — one relaxed store at boundaries that already
//!   exist (admission, pipeline submit, morsel claim, drain, spill I/O),
//!   read by an external sampler every ~10 ms.
//! * Every context keeps the **record** of its current query, cleared by
//!   `arm()`: [`Segment`]s that tile the query's wall time — the admission
//!   wait and parse/plan when a session runs the statement, then each
//!   top-level pipeline run and each stretch the submitting thread spends
//!   between pipelines. A pipeline submitted while another of the same
//!   query runs (inside one of its morsels) is nested and not a segment.
//!   Submit and retire each take the record's lock once. EXPLAIN ANALYZE,
//!   the trace's pipeline lanes, Figure 10's bands, `pmu.<phase>.*` and —
//!   through the running segment's [`PipelineStats`], the very block the
//!   morsel loop adds into — `jsys.query_progress` and ASH all read it.

use crate::metrics::MemPhase;
use crate::pmu::{CounterGroup, CounterValues};
use crate::profile::{PipelineStats, QueryProfile};
use crate::trace::{self, Collector, QueryTrace};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Pipelines running in the process, nested ones included: what
/// `metrics::reset_all`'s debug guard reads.
pub(crate) static RUNNING: AtomicUsize = AtomicUsize::new(0);

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

/// What one stretch of a query's wall time went to: the admission wait,
/// parse/plan (until the engine arms the context), one top-level pipeline
/// run, or the submitting thread's own work between pipelines (plan
/// compilation, a sink's settle, an inline link) with the phase of the
/// pipeline before it and, when the query samples counters, its delta.
#[derive(Debug, Clone)]
pub enum SegmentKind {
    Admission,
    ParsePlan,
    Pipeline(Arc<PipelineStats>),
    Between {
        phase: MemPhase,
        hw: Option<CounterValues>,
    },
}

/// One entry of a query's record, in nanoseconds from the query's start;
/// `end_ns` is `None` while the segment runs.
#[derive(Debug, Clone)]
pub struct Segment {
    pub kind: SegmentKind,
    pub start_ns: u64,
    pub end_ns: Option<u64>,
}

impl Segment {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// A finished query's record: its segments, which tile `wall_ns`, and the
/// profile and trace when the query made them.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    pub segments: Vec<Segment>,
    pub wall_ns: u64,
    pub profile: Option<QueryProfile>,
    pub trace: Option<QueryTrace>,
}

impl QueryRecord {
    /// The top-level pipeline runs, in run order.
    pub fn pipelines(&self) -> impl Iterator<Item = (&Segment, &Arc<PipelineStats>)> + Clone {
        self.segments.iter().filter_map(|s| match &s.kind {
            SegmentKind::Pipeline(p) => Some((s, p)),
            _ => None,
        })
    }

    /// Total time the submitting thread spent between pipelines.
    pub fn between_ns(&self) -> u64 {
        let between = self
            .segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Between { .. }));
        between.map(Segment::dur_ns).sum()
    }
}

/// A submitted pipeline's place in its query's record: `None` when nested.
pub(crate) type Submitted = Option<(u64, usize)>;

/// The trace a top-level pipeline records into, and its lane there.
pub(crate) type Traced = Option<(Arc<Collector>, u32)>;

/// The live record on a [`QueryContext`](crate::context::QueryContext).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// The query's start on the [`trace::now_ns`] clock.
    pub start_ns: u64,
    /// Bumped by every `arm`, so a pipeline that outlives its query cannot
    /// close the next query's segment.
    generation: u64,
    pub segments: Vec<Segment>,
    /// Where the last segment ended, the phase of the last top-level
    /// pipeline, and the running one's segment.
    last_end: u64,
    phase: MemPhase,
    running: Option<usize>,
    /// The reading the submitting thread's counter group was folded up to,
    /// and the group, while the query samples counters.
    hw: Option<(CounterValues, CounterGroup)>,
    /// When a session's statement began; the next `arm` consumes it.
    pub statement_ns: Option<u64>,
    /// The trace the query records into; it outlives `arm`.
    pub trace: Option<Arc<Collector>>,
}

impl Recorder {
    fn now(&self) -> u64 {
        trace::now_ns().saturating_sub(self.start_ns)
    }

    /// Start the record of a new query. A pending statement start opens it
    /// with the admission wait and parse/plan; `counters` opens the calling
    /// thread's counter group.
    pub fn arm(&mut self, admission_wait_ns: u64, counters: bool) {
        let now = trace::now_ns();
        self.generation += 1;
        self.segments.clear();
        self.running = None;
        self.phase = MemPhase::Other;
        self.start_ns = now;
        if let Some(stmt) = self.statement_ns.take() {
            self.start_ns = stmt.saturating_sub(admission_wait_ns);
            let (admitted, armed) = (stmt - self.start_ns, now - self.start_ns);
            self.push(SegmentKind::Admission, 0, Some(admitted));
            self.push(SegmentKind::ParsePlan, admitted, Some(armed));
        }
        self.last_end = now - self.start_ns;
        let group = counters
            .then(CounterGroup::open)
            .filter(CounterGroup::available);
        self.hw = group.map(|group| (group.read(), group));
    }

    fn push(&mut self, kind: SegmentKind, start_ns: u64, end_ns: Option<u64>) {
        self.segments.push(Segment {
            kind,
            start_ns,
            end_ns,
        });
    }

    /// Close the stretch between pipelines at `now`, folding the submitting
    /// thread's counter delta into the phase before it.
    fn between(&mut self, now: u64) {
        let phase = self.phase;
        let hw = self.hw.as_mut().map(|(last, group)| {
            let reading = group.read();
            let delta = reading.delta_since(last);
            *last = reading;
            crate::pmu::flush_to_phase(phase, &delta);
            delta
        });
        self.push(SegmentKind::Between { phase, hw }, self.last_end, Some(now));
    }

    /// A pipeline was submitted: a segment of its own, and a lane of the
    /// query's trace, unless another pipeline of the query runs.
    pub fn pipeline_begin(&mut self, stats: &Arc<PipelineStats>) -> (Submitted, Traced) {
        if self.running.is_some() {
            return (None, None);
        }
        let now = self.now();
        self.between(now);
        let i = self.segments.len();
        self.running = Some(i);
        self.push(SegmentKind::Pipeline(Arc::clone(stats)), now, None);
        let traced = self.trace.clone().map(|col| {
            let lane = col.next_pipeline();
            (col, lane)
        });
        (Some((self.generation, i)), traced)
    }

    /// A pipeline retired at `end_ns` on the [`trace::now_ns`] clock; what
    /// the submitting thread does next is in its phase.
    pub fn pipeline_end(&mut self, at: Submitted, end_ns: u64) {
        let Some((generation, i)) = at else { return };
        if generation != self.generation {
            return;
        }
        let end = end_ns.saturating_sub(self.start_ns);
        if let SegmentKind::Pipeline(stats) = &self.segments[i].kind {
            self.phase = stats.phase;
        }
        self.segments[i].end_ns = Some(end);
        self.last_end = end;
        self.running = None;
        if let Some((last, group)) = &mut self.hw {
            *last = group.read();
        }
    }

    /// End the query: the stretch after its last pipeline closes the
    /// record, and the counter group goes.
    pub fn close(&mut self) -> QueryRecord {
        let now = self.now();
        self.between(now);
        self.hw = None;
        QueryRecord {
            segments: self.segments.clone(),
            wall_ns: now,
            ..QueryRecord::default()
        }
    }

    /// The running top-level pipeline's block.
    pub fn running(&self) -> Option<Arc<PipelineStats>> {
        match &self.segments.get(self.running?)?.kind {
            SegmentKind::Pipeline(stats) => Some(Arc::clone(stats)),
            _ => None,
        }
    }
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
