//! Per-pipeline / per-operator execution counters and the profile tree.
//!
//! The profiler is the software analogue of the paper's per-phase
//! measurements (Figures 10/16): instead of attributing time to the global
//! [`crate::metrics::MemPhase`] timeline, every Source / Operator / Sink of
//! a pipeline gets its own [`StageStats`] slot, and the slots are stitched
//! back into a [`QueryProfile`] tree that mirrors the query plan.
//!
//! # One block per pipeline run, three readers
//!
//! * Whoever submits a pipeline creates one [`PipelineStats`]: identity
//!   (query, label, planner estimate, task count) plus one
//!   [`StageStats`] per stage (source, each fused operator, sink). The
//!   slots are relaxed atomics.
//! * Workers never touch the shared slots while streaming: the one morsel
//!   loop ([`crate::morsel`]) counts into a plain-integer [`WorkerProf`]
//!   and adds it into the block ([`PipelineStats::add`], the only writer)
//!   after every morsel and when the worker drains.
//! * The readers all load the same atomics: EXPLAIN ANALYZE sums the slots
//!   into [`ProfileNode`]s after the query, `jsys.query_progress` and the
//!   ASH sampler read the block off its query's record
//!   ([`crate::progress`]) while its pipeline runs, and the
//!   perf ledger folds finished profiles by operator kind. Mid-flight the
//!   values trail the workers by at most a morsel; they are exact once the
//!   pipeline has retired.
//! * Timing is taken at batch granularity with monotonic [`Instant`] pairs,
//!   and only on a block built with `timed` (a profiled query): otherwise
//!   the loop does the integer adds and reads no clock per batch.
//!
//! [`Instant`]: std::time::Instant
//!
//! The engine (`joinstudy-core`) maps slots onto plan nodes and attaches
//! algorithm-specific details (partition histograms, Bloom selectivity,
//! hash-table chain statistics); this module only defines the generic
//! containers, the text rendering, and the stable JSON export.

use crate::context::QueryContext;
use crate::metrics::MemPhase;
use crate::morsel::PipelineLabel;
use crate::progress::WaitState;
use crate::registry::json_string;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters of one pipeline stage. Relaxed atomics, written only by
/// [`PipelineStats::add`].
///
/// Slot semantics:
/// * **source** — `morsels` = tasks run, `rows_out` = rows emitted,
///   `busy_ns` = time inside `poll_task` *inclusive* of the downstream
///   operator work done in the emit callback (pipeline time).
/// * **operator** — `rows_in`/`rows_out` per `process`+`flush`, `busy_ns`
///   exclusive time inside the operator.
/// * **sink** — `rows_in` = rows consumed, `busy_ns` time inside `consume`.
#[derive(Debug, Default)]
pub struct StageStats {
    morsels: AtomicU64,
    batches: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    busy_ns: AtomicU64,
}

impl StageStats {
    fn add(&self, s: &LocalSlot) {
        self.morsels.fetch_add(s.morsels, Ordering::Relaxed);
        self.batches.fetch_add(s.batches, Ordering::Relaxed);
        self.rows_in.fetch_add(s.rows_in, Ordering::Relaxed);
        self.rows_out.fetch_add(s.rows_out, Ordering::Relaxed);
        self.busy_ns.fetch_add(s.busy_ns, Ordering::Relaxed);
    }

    pub fn morsels(&self) -> u64 {
        self.morsels.load(Ordering::Relaxed)
    }

    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub fn rows_in(&self) -> u64 {
        self.rows_in.load(Ordering::Relaxed)
    }

    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

/// Everything observed about one pipeline run: who it belongs to, what it
/// is called, and the per-stage counters. Created by the submitter, fed by
/// the morsel loop, read by the profiler afterwards and — on the pool —
/// by `jsys.query_progress` and ASH while it runs.
#[derive(Debug)]
pub struct PipelineStats {
    /// Process-wide query serial (see `QueryContext::query_id`).
    pub query_id: u64,
    /// Pipeline label, e.g. `"BHJ probe"`; `"pipeline"` when unlabeled.
    pub label: String,
    /// CPU wait state the pool stamps while a worker runs this pipeline's
    /// morsels ([`PipelineLabel::cpu`]).
    pub cpu_state: WaitState,
    /// The Figure 10 phase this pipeline runs in ([`PipelineLabel::phase`]):
    /// its timeline event and its workers' `pmu.<phase>.*` counts.
    pub phase: MemPhase,
    /// Planner cardinality estimate for this pipeline's source rows
    /// (0 = no estimate). From the adaptive join's cost model.
    pub est_rows: u64,
    /// Total morsels the source exposes.
    pub tasks_total: u64,
    /// Whether the workers time every batch (a profiled query).
    pub timed: bool,
    pub source: StageStats,
    /// Interior operators, front to back.
    pub ops: Vec<StageStats>,
    pub sink: StageStats,
    /// Aggregated hardware-counter deltas from the workers that ran this
    /// pipeline (empty unless counter sampling was on — see [`crate::pmu`]).
    pub hw: crate::pmu::HwSlot,
    wall_ns: AtomicU64,
    workers: AtomicU64,
}

impl PipelineStats {
    pub fn new(
        ctx: &Arc<QueryContext>,
        label: PipelineLabel<'_>,
        num_ops: usize,
        tasks_total: u64,
        timed: bool,
    ) -> PipelineStats {
        PipelineStats {
            query_id: ctx.query_id(),
            label: label.name.to_string(),
            cpu_state: label.cpu,
            phase: label.phase,
            est_rows: label.est_rows,
            tasks_total,
            timed,
            source: StageStats::default(),
            ops: (0..num_ops).map(|_| StageStats::default()).collect(),
            sink: StageStats::default(),
            hw: crate::pmu::HwSlot::default(),
            wall_ns: AtomicU64::new(0),
            workers: AtomicU64::new(0),
        }
    }

    /// Add one worker's private counts since its last publication (one
    /// relaxed burst; purely additive, so per-morsel and at-drain
    /// publication give the same totals).
    pub fn add(&self, w: &WorkerProf) {
        self.source.add(&w.source);
        for (stage, slot) in self.ops.iter().zip(&w.ops) {
            stage.add(slot);
        }
        self.sink.add(&w.sink);
    }

    /// Record the finished run's wall time and worker count.
    pub(crate) fn record_run(&self, wall_ns: u64, workers: u64) {
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        self.workers.fetch_max(workers, Ordering::Relaxed);
    }

    pub fn wall_ns(&self) -> u64 {
        self.wall_ns.load(Ordering::Relaxed)
    }

    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }

    /// Morsels fully run so far.
    pub fn tasks_done(&self) -> u64 {
        self.source.morsels()
    }

    /// Every stage front to back under its `jsys.query_progress` name:
    /// `"source"`, `"op0"`, `"op1"`, ..., `"sink"`.
    pub fn stages(&self) -> impl Iterator<Item = (String, &StageStats)> {
        let ops = self.ops.iter().enumerate();
        std::iter::once(("source".to_string(), &self.source))
            .chain(ops.map(|(i, op)| (format!("op{i}"), op)))
            .chain(std::iter::once(("sink".to_string(), &self.sink)))
    }

    /// Estimated-vs-actual fraction: source rows emitted so far over the
    /// planner's estimate; falls back to the morsel cursor when the
    /// planner had no estimate. Clamped to 1.0 — estimates can be wrong,
    /// progress cannot exceed done.
    pub fn fraction(&self) -> f64 {
        if self.est_rows > 0 {
            (self.source.rows_out() as f64 / self.est_rows as f64).min(1.0)
        } else if self.tasks_total > 0 {
            self.tasks_done() as f64 / self.tasks_total as f64
        } else {
            1.0
        }
    }
}

/// One worker's private accumulator: the block's stage layout in plain
/// integers, no sharing, added into the pipeline's block
/// ([`PipelineStats::add`]) at morsel end or drain.
#[derive(Debug, Default)]
pub struct WorkerProf {
    pub source: LocalSlot,
    pub ops: Vec<LocalSlot>,
    pub sink: LocalSlot,
}

/// One stage's slice of a [`WorkerProf`]; same fields and meanings as the
/// [`StageStats`] it is added into.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalSlot {
    pub morsels: u64,
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub busy_ns: u64,
}

impl WorkerProf {
    pub fn new(num_ops: usize) -> WorkerProf {
        WorkerProf {
            ops: vec![LocalSlot::default(); num_ops],
            ..WorkerProf::default()
        }
    }

    /// Zero every count, keeping the per-operator allocation.
    pub(crate) fn reset(&mut self) {
        self.source = LocalSlot::default();
        self.ops.fill(LocalSlot::default());
        self.sink = LocalSlot::default();
    }
}

/// A typed detail value, so the JSON export emits real numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum DetailValue {
    Int(i64),
    Float(f64),
    Str(String),
}

/// Counts of every integer width the engine reports become `Int`.
macro_rules! detail_int {
    ($($t:ty),*) => {$(
        impl From<$t> for DetailValue {
            fn from(v: $t) -> DetailValue {
                DetailValue::Int(v as i64)
            }
        }
    )*};
}
detail_int!(usize, u64, u32, i64);

impl From<f64> for DetailValue {
    fn from(v: f64) -> DetailValue {
        DetailValue::Float(v)
    }
}

impl From<String> for DetailValue {
    fn from(v: String) -> DetailValue {
        DetailValue::Str(v)
    }
}

impl From<&str> for DetailValue {
    fn from(v: &str) -> DetailValue {
        DetailValue::Str(v.to_string())
    }
}

impl std::fmt::Display for DetailValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetailValue::Int(v) => write!(f, "{v}"),
            DetailValue::Float(v) => write!(f, "{v:.3}"),
            DetailValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One node of the aggregated profile tree (mirrors the plan tree).
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    pub label: String,
    pub morsels: u64,
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub busy_ns: u64,
    /// Algorithm-specific statistics (partition histograms, Bloom
    /// selectivity, hash-table chain stats, ...), insertion-ordered.
    pub details: Vec<(String, DetailValue)>,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    pub fn new(label: impl Into<String>) -> ProfileNode {
        ProfileNode {
            label: label.into(),
            ..ProfileNode::default()
        }
    }

    /// Accumulate one observation slot into this node. A node may aggregate
    /// several slots (e.g. a join's build sink + probe operator).
    pub fn add_stats(&mut self, stats: &StageStats) {
        self.morsels += stats.morsels();
        self.batches += stats.batches();
        self.rows_in += stats.rows_in();
        self.rows_out += stats.rows_out();
        self.busy_ns += stats.busy_ns();
    }

    /// This node and all descendants, pre-order.
    pub fn iter(&self) -> Vec<&ProfileNode> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.iter());
        }
        out
    }

    /// This node and all descendants, post-order: children first, left to
    /// right — the plan's join numbering (`Plan::override_join_algo`).
    pub fn post_order(&self) -> Vec<&ProfileNode> {
        let mut out: Vec<_> = self.children.iter().flat_map(|c| c.post_order()).collect();
        out.push(self);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!(
            "{pad}{}  [rows_in={} rows_out={} morsels={} busy={}]",
            self.label,
            self.rows_in,
            self.rows_out,
            self.morsels,
            fmt_ns(self.busy_ns)
        ));
        if !self.details.is_empty() {
            let details: Vec<String> = self
                .details
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(" {{{}}}", details.join(" ")));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    fn to_json_into(&self, out: &mut String) {
        out.push_str("{\"label\":");
        out.push_str(&json_string(&self.label));
        out.push_str(&format!(
            ",\"morsels\":{},\"batches\":{},\"rows_in\":{},\"rows_out\":{},\"busy_ns\":{}",
            self.morsels, self.batches, self.rows_in, self.rows_out, self.busy_ns
        ));
        out.push_str(",\"details\":{");
        for (i, (k, v)) in self.details.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push(':');
            match v {
                DetailValue::Int(n) => out.push_str(&n.to_string()),
                DetailValue::Float(f) => out.push_str(&json_f64(*f)),
                DetailValue::Str(s) => out.push_str(&json_string(s)),
            }
        }
        out.push_str("},\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.to_json_into(out);
        }
        out.push_str("]}");
    }
}

/// The aggregated execution profile of one query.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    pub root: ProfileNode,
    /// Wall-clock time of the whole `execute` call (all pipelines).
    pub wall_ns: u64,
    /// Executor worker count the query ran with.
    pub threads: usize,
    /// Steps down the degradation ladder (RJ/BRJ → BHJ → HHJ) during this
    /// query.
    pub degradations: u64,
    /// Peak bytes reserved against the query's memory budget.
    pub peak_bytes: usize,
    /// Spill-file traffic (bytes written + bytes read back) of the
    /// out-of-core hybrid hash join; 0 for fully in-memory queries.
    pub spill_bytes: u64,
    /// Nanoseconds the query waited in the admission queue (0 when it was
    /// not admitted through an [`crate::admission::AdmissionController`]).
    pub admission_wait_ns: u64,
    /// Bytes the admission controller granted (0 without admission).
    pub admission_granted: u64,
    /// Which kernel path the process-wide SIMD dispatcher selected
    /// (`"avx2"` or `"scalar"`); constant for the process lifetime.
    pub simd: &'static str,
}

impl QueryProfile {
    /// Render the annotated plan tree (the EXPLAIN ANALYZE output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "wall={} threads={} peak_mem={} degradations={} spill={} admission={}/{} simd={}\n",
            fmt_ns(self.wall_ns),
            self.threads,
            fmt_bytes(self.peak_bytes),
            self.degradations,
            fmt_bytes(self.spill_bytes as usize),
            fmt_ns(self.admission_wait_ns),
            fmt_bytes(self.admission_granted as usize),
            self.simd,
        );
        self.root.render_into(0, &mut out);
        out
    }

    /// Every node, pre-order.
    pub fn nodes(&self) -> Vec<&ProfileNode> {
        self.root.iter()
    }

    /// Stable JSON export: one document with a `root` node tree. Keys are
    /// fixed; `details` is a flat string→number/string object per node, so
    /// figure scripts can segment time by operator without knowing the
    /// plan shape in advance.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"wall_ns\":{},\"threads\":{},\"degradations\":{},\"peak_bytes\":{},\
             \"spill_bytes\":{},\"admission_wait_ns\":{},\"admission_granted\":{},\
             \"simd\":\"{}\",\"root\":",
            self.wall_ns,
            self.threads,
            self.degradations,
            self.peak_bytes,
            self.spill_bytes,
            self.admission_wait_ns,
            self.admission_granted,
            self.simd
        );
        self.root.to_json_into(&mut out);
        out.push('}');
        out
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn fmt_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

/// JSON numbers must be finite; non-finite floats degrade to 0.
fn json_f64(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one writer and both kinds of read: a worker record is added into
    /// the block, and the same block is what a live reader finds in the
    /// query's record.
    #[test]
    fn worker_prof_adds_into_the_block_the_record_serves() {
        let ctx = QueryContext::unbounded();
        ctx.arm();
        let label = PipelineLabel {
            name: "BHJ probe",
            cpu: WaitState::CpuProbe,
            phase: MemPhase::Other,
            est_rows: 200,
        };
        let stats = Arc::new(PipelineStats::new(&ctx, label, 2, 8, true));
        let (at, _) = ctx.record().pipeline_begin(&stats);
        let mut w = WorkerProf::new(2);
        let slot = |morsels, rows_in, rows_out, busy_ns| LocalSlot {
            morsels,
            batches: 4,
            rows_in,
            rows_out,
            busy_ns,
        };
        w.source = slot(3, 0, 100, 500);
        w.ops[0] = slot(0, 100, 60, 200);
        w.ops[1] = slot(0, 60, 60, 100);
        w.sink = slot(0, 60, 0, 50);
        stats.add(&w);
        // A reset record adds nothing, and keeps its per-operator slots.
        w.reset();
        assert_eq!(w.ops.len(), 2);
        stats.add(&w);
        assert_eq!(stats.source.morsels(), 3);
        assert_eq!(stats.source.rows_out(), 100);
        assert_eq!(stats.ops[0].rows_in(), 100);
        assert_eq!(stats.ops[0].rows_out(), 60);
        assert_eq!(stats.ops[1].busy_ns(), 100);
        assert_eq!(stats.sink.rows_in(), 60);

        // The live read goes through the record to the same memory.
        let s = &ctx.running_pipeline().expect("the pipeline runs");
        assert!(Arc::ptr_eq(s, &stats));
        assert_eq!(s.label, "BHJ probe");
        assert_eq!(s.cpu_state, WaitState::CpuProbe);
        assert_eq!(s.tasks_done(), 3);
        assert_eq!(s.tasks_total, 8);
        let stages: Vec<_> = s
            .stages()
            .map(|(name, st)| (name, st.rows_in(), st.rows_out()))
            .collect();
        assert_eq!(
            stages,
            [
                ("source".to_string(), 0, 100),
                ("op0".to_string(), 100, 60),
                ("op1".to_string(), 60, 60),
                ("sink".to_string(), 60, 0),
            ]
        );
        assert!((s.fraction() - 0.5).abs() < 1e-9, "100/200 est fraction");

        ctx.record().pipeline_end(at, crate::trace::now_ns());
        assert!(ctx.running_pipeline().is_none());
    }

    #[test]
    fn fraction_falls_back_to_cursor_without_estimate() {
        let ctx = QueryContext::unbounded();
        let stats = PipelineStats::new(&ctx, "scan".into(), 0, 10, false);
        let mut w = WorkerProf::new(0);
        w.source.morsels = 4;
        stats.add(&w);
        assert!((stats.fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn profile_json_is_stable_and_escaped() {
        let mut node = ProfileNode::new("Scan [a\"b]");
        node.rows_out = 7;
        node.details.push(("skew".into(), DetailValue::Float(1.25)));
        node.details
            .push(("algo".into(), DetailValue::Str("RJ\n".into())));
        let mut root = ProfileNode::new("Output");
        root.rows_in = 7;
        root.children.push(node);
        let p = QueryProfile {
            root,
            wall_ns: 42,
            threads: 2,
            degradations: 0,
            peak_bytes: 1024,
            spill_bytes: 2048,
            admission_wait_ns: 7,
            admission_granted: 4096,
            simd: "scalar",
        };
        let json = p.to_json();
        assert!(json.starts_with(
            "{\"wall_ns\":42,\"threads\":2,\"degradations\":0,\"peak_bytes\":1024,\
             \"spill_bytes\":2048,\"admission_wait_ns\":7,\"admission_granted\":4096,\
             \"simd\":\"scalar\",\"root\":"
        ));
        assert!(json.contains("\"label\":\"Scan [a\\\"b]\""), "{json}");
        assert!(json.contains("\"skew\":1.25"), "{json}");
        assert!(json.contains("\"algo\":\"RJ\\n\""), "{json}");
        assert!(json.ends_with("]}}"), "{json}");
        // Balanced braces/brackets (poor man's JSON validity check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn render_contains_stats_and_details() {
        let mut node = ProfileNode::new("Filter");
        node.rows_in = 100;
        node.rows_out = 40;
        node.busy_ns = 1_500_000;
        node.details
            .push(("selectivity".into(), DetailValue::Float(0.4)));
        let p = QueryProfile {
            root: node,
            wall_ns: 2_000_000,
            threads: 4,
            degradations: 1,
            peak_bytes: 0,
            spill_bytes: 4 * 1024 * 1024,
            admission_wait_ns: 2_500,
            admission_granted: 16 * 1024 * 1024,
            simd: "avx2",
        };
        let text = p.render();
        assert!(text.contains("rows_in=100"), "{text}");
        assert!(text.contains("rows_out=40"), "{text}");
        assert!(text.contains("selectivity=0.400"), "{text}");
        assert!(text.contains("degradations=1"), "{text}");
        assert!(text.contains("spill=4.0MiB"), "{text}");
        assert!(text.contains("admission=2.5us/16.0MiB"), "{text}");
        assert!(text.contains("simd=avx2"), "{text}");
        assert!(text.contains("1.50ms"), "{text}");
    }

    #[test]
    fn non_finite_floats_do_not_break_json() {
        let mut node = ProfileNode::new("x");
        node.details
            .push(("bad".into(), DetailValue::Float(f64::NAN)));
        let p = QueryProfile {
            root: node,
            wall_ns: 0,
            threads: 1,
            degradations: 0,
            peak_bytes: 0,
            spill_bytes: 0,
            admission_wait_ns: 0,
            admission_granted: 0,
            simd: "scalar",
        };
        assert!(p.to_json().contains("\"bad\":0"));
    }
}
