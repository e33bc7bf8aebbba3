//! Per-pipeline / per-operator execution profiler.
//!
//! The profiler is the software analogue of the paper's per-phase
//! measurements (Figures 10/16): instead of attributing time to the global
//! [`crate::metrics::MemPhase`] timeline, every Source / Operator / Sink of
//! a pipeline gets its own [`OpStats`] slot, and the slots are stitched back
//! into a [`QueryProfile`] tree that mirrors the query plan.
//!
//! # Design (per-worker counts, additive publication)
//!
//! * A [`PipelineObs`] holds one shared [`OpStats`] slot per pipeline stage
//!   (source, each fused operator, sink). Slots are relaxed atomics.
//! * Workers never touch the shared slots while streaming: the one morsel
//!   loop ([`crate::morsel`]) always counts into a plain-integer
//!   [`WorkerProf`] and adds it into the `PipelineObs` when the worker
//!   drains (one `fetch_add` burst per worker per pipeline) — or after
//!   every morsel on the shared pool, so the slots are readable mid-flight.
//! * Timing is taken at batch granularity with monotonic [`Instant`] pairs,
//!   and only when the pipeline carries a `PipelineObs`: with profiling off
//!   the loop does the integer adds and reads no clock.
//!
//! [`Instant`]: std::time::Instant
//!
//! The engine (`joinstudy-core`) maps slots onto plan nodes and attaches
//! algorithm-specific details (partition histograms, Bloom selectivity,
//! hash-table chain statistics); this module only defines the generic
//! containers, the text rendering, and the stable JSON export.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared per-stage counters of one pipeline. All updates are relaxed; the
/// slot is read only after the pipeline (or the whole query) finished.
#[derive(Debug, Default)]
pub struct OpStats {
    morsels: AtomicU64,
    batches: AtomicU64,
    rows_in: AtomicU64,
    rows_out: AtomicU64,
    busy_ns: AtomicU64,
}

impl OpStats {
    pub fn new() -> OpStats {
        OpStats::default()
    }

    /// Merge one worker's local counts.
    pub fn add(&self, morsels: u64, batches: u64, rows_in: u64, rows_out: u64, busy_ns: u64) {
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        self.batches.fetch_add(batches, Ordering::Relaxed);
        self.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out, Ordering::Relaxed);
        self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
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

/// Observation slots for one pipeline run: a source slot, one slot per
/// fused operator (pipeline order), and a sink slot, plus the pipeline's
/// wall-clock time and worker count.
///
/// Slot semantics:
/// * **source** — `morsels` = tasks claimed, `rows_out` = rows emitted,
///   `busy_ns` = time inside `poll_task` *inclusive* of the downstream
///   operator work done in the emit callback (pipeline time).
/// * **operator** — `rows_in`/`rows_out` per `process`+`flush`, `busy_ns`
///   exclusive time inside the operator.
/// * **sink** — `rows_in` = rows consumed, `busy_ns` time inside `consume`.
#[derive(Debug)]
pub struct PipelineObs {
    pub source: OpStats,
    pub ops: Vec<OpStats>,
    pub sink: OpStats,
    /// Aggregated hardware-counter deltas from the workers that ran this
    /// pipeline (empty unless counter sampling was on — see [`crate::pmu`]).
    pub hw: crate::pmu::HwSlot,
    wall_ns: AtomicU64,
    workers: AtomicU64,
}

impl PipelineObs {
    pub fn new(num_ops: usize) -> PipelineObs {
        PipelineObs {
            source: OpStats::new(),
            ops: (0..num_ops).map(|_| OpStats::new()).collect(),
            sink: OpStats::new(),
            hw: crate::pmu::HwSlot::new(),
            wall_ns: AtomicU64::new(0),
            workers: AtomicU64::new(0),
        }
    }

    /// Add one worker's private counts (one relaxed burst; purely
    /// additive, so it may be called per morsel or once at drain).
    pub(crate) fn add(&self, w: &WorkerProf) {
        self.source
            .add(w.morsels, w.src_batches, 0, w.src_rows, w.src_busy_ns);
        for (slot, stats) in w.ops.iter().zip(&self.ops) {
            stats.add(0, slot.batches, slot.rows_in, slot.rows_out, slot.busy_ns);
        }
        self.sink
            .add(0, w.sink_batches, w.sink_rows, 0, w.sink_busy_ns);
    }

    /// Record one completed `run_pipeline` invocation on this observation.
    pub fn record_run(&self, wall_ns: u64, workers: u64) {
        self.wall_ns.fetch_add(wall_ns, Ordering::Relaxed);
        self.workers.fetch_max(workers, Ordering::Relaxed);
    }

    pub fn wall_ns(&self) -> u64 {
        self.wall_ns.load(Ordering::Relaxed)
    }

    pub fn workers(&self) -> u64 {
        self.workers.load(Ordering::Relaxed)
    }
}

/// One worker's private accumulator: plain integers, no sharing, added
/// into the shared blocks (`PipelineObs::add`, `PipelineProgress::add`) at
/// morsel end or drain.
#[derive(Debug)]
pub struct WorkerProf {
    pub morsels: u64,
    pub src_batches: u64,
    pub src_rows: u64,
    pub src_busy_ns: u64,
    pub ops: Vec<LocalSlot>,
    pub sink_batches: u64,
    pub sink_rows: u64,
    pub sink_busy_ns: u64,
}

/// Per-operator slice of a [`WorkerProf`].
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalSlot {
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub busy_ns: u64,
}

impl WorkerProf {
    pub fn new(num_ops: usize) -> WorkerProf {
        WorkerProf {
            morsels: 0,
            src_batches: 0,
            src_rows: 0,
            src_busy_ns: 0,
            ops: vec![LocalSlot::default(); num_ops],
            sink_batches: 0,
            sink_rows: 0,
            sink_busy_ns: 0,
        }
    }

    /// Zero every count, keeping the per-operator allocation.
    pub(crate) fn reset(&mut self) {
        let mut ops = std::mem::take(&mut self.ops);
        ops.fill(LocalSlot::default());
        *self = WorkerProf {
            ops,
            ..WorkerProf::new(0)
        };
    }
}

/// A typed detail value, so the JSON export emits real numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum DetailValue {
    Int(i64),
    Float(f64),
    Str(String),
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
    pub fn add_stats(&mut self, stats: &OpStats) {
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
        json_string(&self.label, out);
        out.push_str(&format!(
            ",\"morsels\":{},\"batches\":{},\"rows_in\":{},\"rows_out\":{},\"busy_ns\":{}",
            self.morsels, self.batches, self.rows_in, self.rows_out, self.busy_ns
        ));
        out.push_str(",\"details\":{");
        for (i, (k, v)) in self.details.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string(k, out);
            out.push(':');
            match v {
                DetailValue::Int(n) => out.push_str(&n.to_string()),
                DetailValue::Float(f) => out.push_str(&json_f64(*f)),
                DetailValue::Str(s) => json_string(s, out),
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
    /// RJ→BHJ degradation events during this query.
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

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_prof_adds_into_obs_and_resets() {
        let obs = PipelineObs::new(2);
        let mut w = WorkerProf::new(2);
        w.morsels = 3;
        w.src_batches = 4;
        w.src_rows = 100;
        w.src_busy_ns = 500;
        w.ops[0] = LocalSlot {
            batches: 4,
            rows_in: 100,
            rows_out: 60,
            busy_ns: 200,
        };
        w.ops[1] = LocalSlot {
            batches: 4,
            rows_in: 60,
            rows_out: 60,
            busy_ns: 100,
        };
        w.sink_batches = 4;
        w.sink_rows = 60;
        w.sink_busy_ns = 50;
        obs.add(&w);
        // A reset record adds nothing, and keeps its per-operator slots.
        w.reset();
        assert_eq!(w.ops.len(), 2);
        obs.add(&w);
        assert_eq!(obs.source.morsels(), 3);
        assert_eq!(obs.source.rows_out(), 100);
        assert_eq!(obs.ops[0].rows_in(), 100);
        assert_eq!(obs.ops[0].rows_out(), 60);
        assert_eq!(obs.ops[1].busy_ns(), 100);
        assert_eq!(obs.sink.rows_in(), 60);
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
