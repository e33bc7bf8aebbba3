//! Worker-timeline tracing: who did what, when, on which worker.
//!
//! The profiler ([`crate::profile`]) answers "how much time did operator X
//! consume in total"; this module answers the *when* questions the paper's
//! partitioning-vs-not argument turns on — when do workers idle at a
//! partition barrier, how long does the build→probe transition stall the
//! fleet, does the Bloom phase serialize.
//!
//! # Design
//!
//! - **The trace belongs to the query.** [`begin`] puts a [`Collector`] on
//!   the query's [`QueryContext`] and [`end`] takes it off again as a
//!   [`QueryTrace`]. The executor traces a top-level pipeline if and only
//!   if its context carries a collector — read under the record lock the
//!   submit takes anyway — and gives every worker of the one morsel loop
//!   ([`crate::morsel`]) a track: its index in the pool, 0 inline. Two
//!   queries, pooled or private, record into two collectors.
//! - **Pipeline lanes and counter samples are the query's record.** The
//!   collector keeps only morsel, phase, idle and instant spans; [`end`]
//!   reads the pipeline spans (label, Figure 10 phase, start, end) and the
//!   submitting thread's counter samples off the segments of the query's
//!   record ([`crate::progress`]) that began while the trace recorded.
//! - **Hot path is lock-free**: each traced worker records spans into a
//!   reusable `Vec<TraceSpan>` (timestamp pairs only) and flushes it into
//!   the pipeline's collector with a *single* mutex acquisition when it
//!   drains the pipeline — the "epoch flush": span buffers only migrate at
//!   pipeline-drain boundaries, never mid-execution.
//! - **Cold path goes straight to the collector**: pipeline-breaker
//!   finalize phases, hybrid reloads and degradation instants happen a
//!   handful of times per query, so they push under the mutex directly via
//!   [`phase_scope`] / [`instant`]. (The radix histogram scan, scatter and
//!   Bloom build are pipelines, traced like any other.) A phase or instant
//!   raised inside a traced morsel or drain — a pooled hybrid reload, an
//!   eviction, the Bloom filter switching itself off — lands on that
//!   worker's track, nested in the morsel: the morsel loop marks the thread
//!   with a [`worker_scope`] naming the pipeline's collector, one
//!   thread-local store per traced morsel and none per untraced one.
//!   Anywhere else, the two helpers find the collector through the query's
//!   context and record on the control track.
//! - **Idle spans are synthesized, not measured**: when a worker drains it
//!   reports its drain timestamp; when the pipeline ends, the gap between
//!   each worker's drain and the pipeline end becomes an `Idle` span. That
//!   gap is exactly the partition-barrier wait the paper's Figure 10
//!   timeline shows — early-drained workers parked while a straggler
//!   finishes its morsel.
//!
//! Timestamps are nanoseconds from a process-wide monotonic epoch;
//! [`end`] normalizes them to query-relative time.

use crate::context::QueryContext;
use crate::metrics::MemPhase;
use crate::pmu::CounterValues;
use crate::progress::SegmentKind;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Track id used for spans recorded off the worker fleet (the coordinating
/// thread: finalize phases, partition passes, instants).
pub const CONTROL_TRACK: u32 = u32::MAX;

/// Pipeline id for spans not tied to a pipeline.
pub const NO_PIPELINE: u32 = u32::MAX;

/// Span taxonomy (see DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One morsel (source task) executed by a worker, inclusive of the
    /// downstream operator chain and sink consume.
    Morsel,
    /// A cold-path phase: a breaker's serial finalize on the control track
    /// (e.g. a hash table's allocation and inline link), a hybrid reload
    /// inside the morsel that runs it.
    Phase,
    /// Synthesized wait interval: a worker drained its pipeline and parked
    /// until the slowest sibling finished (the partition-barrier gap).
    Idle,
    /// Zero-duration event (budget degradation, adaptive Bloom switch-off).
    Instant,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Morsel => "morsel",
            SpanKind::Phase => "phase",
            SpanKind::Idle => "idle",
            SpanKind::Instant => "instant",
        }
    }
}

/// One recorded interval. `start_ns` is query-relative after [`end`].
#[derive(Debug, Clone)]
pub struct TraceSpan {
    pub name: Cow<'static, str>,
    pub kind: SpanKind,
    /// Worker index, or [`CONTROL_TRACK`].
    pub track: u32,
    /// Owning pipeline id, or [`NO_PIPELINE`].
    pub pipeline: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Kind-specific payload: rows for `Morsel`, 0 otherwise.
    pub arg: u64,
}

/// The submitting thread's cumulative hardware counters at the end of a
/// stretch between pipelines (while the query samples counters).
/// `at_ns` is query-relative.
#[derive(Debug, Clone)]
pub struct HwSample {
    pub at_ns: u64,
    pub values: CounterValues,
}

/// One pipeline run: an async span stretching over all its workers.
#[derive(Debug, Clone)]
pub struct PipelineSpan {
    pub label: String,
    /// The Figure 10 phase the pipeline runs in (`PipelineLabel::phase`);
    /// from one pipeline's start to the next is that phase's band.
    pub phase: MemPhase,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Workers that took part in it.
    pub workers: u32,
}

/// A completed query trace, timestamps normalized to query start.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub label: String,
    pub wall_ns: u64,
    pub spans: Vec<TraceSpan>,
    pub pipelines: Vec<PipelineSpan>,
    /// Submitting-thread hardware-counter samples (empty unless the query
    /// sampled counters).
    pub counters: Vec<HwSample>,
}

/// One query's trace while it records: what [`begin`] puts on the query's
/// context, what the query's traced pipelines and their workers record
/// into, and what [`end`] turns into a [`QueryTrace`].
#[derive(Debug)]
pub struct Collector {
    label: String,
    start_ns: u64,
    /// Lanes handed out so far: the next top-level pipeline's id.
    lanes: AtomicU32,
    rec: Mutex<Recording>,
}

#[derive(Debug, Default)]
struct Recording {
    spans: Vec<TraceSpan>,
    /// `(pipeline, track, drained_at)` — consumed by
    /// [`Collector::pipeline_end`] into `Idle` spans.
    drains: Vec<(u32, u32, u64)>,
}

/// Where a span raised on a thread is recorded: a collector, and the
/// pipeline and track inside it.
#[derive(Debug, Clone)]
pub(crate) struct Track {
    pub col: Arc<Collector>,
    pub pipeline: u32,
    pub track: u32,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Reusable worker span buffer (only the capacity is reused; contents
    /// are moved into the collector at flush).
    static WORKER_BUF: RefCell<Vec<TraceSpan>> = const { RefCell::new(Vec::new()) };
    /// The traced pipeline whose morsel or drain this thread is running,
    /// while a [`worker_scope`] is open.
    static WORKER_TRACK: RefCell<Option<Track>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording a trace of the query `ctx` runs: every top-level
/// pipeline run under `ctx` from now on is traced. A trace `ctx` was still
/// carrying is dropped.
pub fn begin(ctx: &QueryContext, label: &str) {
    let col = Collector {
        label: label.to_string(),
        start_ns: now_ns(),
        lanes: AtomicU32::new(0),
        rec: Mutex::default(),
    };
    ctx.record().trace = Some(Arc::new(col));
}

/// Stop recording `ctx`'s trace and return it; `None` if [`begin`] was not
/// called on `ctx` since the last `end`. Call it once the query's
/// pipelines have returned: its pipeline spans and counter samples are the
/// segments of the query's record that began after [`begin`].
pub fn end(ctx: &QueryContext) -> Option<QueryTrace> {
    let record = &mut *ctx.record();
    let col = record.trace.take()?;
    let end_ns = now_ns();
    let t0 = col.start_ns;
    let rel = |ns: u64| ns.saturating_sub(t0);
    let mut spans = std::mem::take(&mut col.rec().spans);
    for s in &mut spans {
        s.start_ns = rel(s.start_ns);
    }
    let (start, segments) = (record.start_ns, &record.segments);
    let (mut pipelines, mut counters) = (Vec::new(), Vec::new());
    let mut sum = CounterValues::default();
    for seg in segments.iter().filter(|seg| start + seg.start_ns >= t0) {
        let end = rel(start + seg.end_ns.unwrap_or(seg.start_ns));
        match &seg.kind {
            SegmentKind::Pipeline(p) => pipelines.push(PipelineSpan {
                label: p.label.clone(),
                phase: p.phase,
                start_ns: rel(start + seg.start_ns),
                end_ns: end,
                workers: p.workers() as u32,
            }),
            SegmentKind::Between { hw: Some(hw), .. } => {
                sum.add(hw);
                counters.push(HwSample {
                    at_ns: end,
                    values: sum,
                });
            }
            _ => {}
        }
    }
    Some(QueryTrace {
        label: col.label.clone(),
        wall_ns: rel(end_ns),
        spans,
        pipelines,
        counters,
    })
}

impl Collector {
    /// The recording. Each update is whole pushes and takes, so a panic
    /// elsewhere cannot leave it invalid and a poisoned lock is taken as
    /// is (a phase guard's drop must not panic).
    fn rec(&self) -> MutexGuard<'_, Recording> {
        self.rec.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id of the next top-level pipeline traced into this collector:
    /// its index in [`QueryTrace::pipelines`].
    pub(crate) fn next_pipeline(&self) -> u32 {
        self.lanes.fetch_add(1, Ordering::Relaxed)
    }

    /// Synthesize `Idle` spans from each worker's drain timestamp to the
    /// pipeline's end. Must run after every worker of the pipeline has
    /// flushed (the executor calls it once the run returned).
    pub(crate) fn pipeline_end(&self, id: u32, label: &str, end_ns: u64) {
        let rec = &mut *self.rec();
        let mut i = 0;
        while i < rec.drains.len() {
            if rec.drains[i].0 == id {
                let (_, track, at) = rec.drains.swap_remove(i);
                if end_ns > at {
                    rec.spans.push(TraceSpan {
                        name: Cow::Owned(format!("idle ({label})")),
                        kind: SpanKind::Idle,
                        track,
                        pipeline: id,
                        start_ns: at,
                        dur_ns: end_ns - at,
                        arg: 0,
                    });
                }
            } else {
                i += 1;
            }
        }
    }
}

impl Track {
    /// Epoch flush: move a drained worker's spans into the collector under
    /// one lock, record the drain timestamp for idle synthesis, and hand
    /// the (now empty) buffer back to the thread-local slot.
    pub(crate) fn flush(&self, mut spans: Vec<TraceSpan>, drained_at: u64) {
        {
            let mut rec = self.col.rec();
            rec.spans.append(&mut spans);
            rec.drains.push((self.pipeline, self.track, drained_at));
        }
        WORKER_BUF.with(|b| *b.borrow_mut() = spans);
    }
}

/// Take the calling thread's reusable span buffer (empty, capacity kept).
pub(crate) fn take_worker_buffer() -> Vec<TraceSpan> {
    WORKER_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// Marks the calling thread as a worker of a traced pipeline for as long
/// as it lives; see [`worker_scope`].
pub struct WorkerScope {
    prev: Option<Track>,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        WORKER_TRACK.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Open while a worker runs a morsel or the drain of a traced pipeline at
/// `at`: a [`phase_scope`] or [`instant`] raised meanwhile lands on that
/// track of that pipeline's collector. Dropping restores the previous
/// marking, so a nested pipeline run and an unwinding panic leave the
/// thread as they found it.
pub(crate) fn worker_scope(at: &Track) -> WorkerScope {
    WorkerScope {
        prev: WORKER_TRACK.with(|c| c.replace(Some(at.clone()))),
    }
}

/// Where a cold-path span raised on the calling thread goes: the worker
/// track of the traced morsel or drain it runs, else the control track of
/// the trace `ctx` records, else nowhere.
fn target(ctx: &QueryContext) -> Option<Track> {
    WORKER_TRACK.with(|c| c.borrow().clone()).or_else(|| {
        ctx.record().trace.clone().map(|col| Track {
            col,
            pipeline: NO_PIPELINE,
            track: CONTROL_TRACK,
        })
    })
}

/// Record a zero-duration event (e.g. an RJ→BHJ budget degradation) in the
/// trace of the query `ctx` runs: on the worker's track inside a traced
/// morsel or drain ([`worker_scope`]), on the control track elsewhere, and
/// nowhere when the query is not traced.
pub fn instant(ctx: &QueryContext, name: impl Into<Cow<'static, str>>) {
    let Some(at) = target(ctx) else { return };
    at.col.rec().spans.push(TraceSpan {
        name: name.into(),
        kind: SpanKind::Instant,
        track: at.track,
        pipeline: at.pipeline,
        start_ns: now_ns(),
        dur_ns: 0,
        arg: 0,
    });
}

/// RAII guard for a cold-path phase span. Records on drop, so early
/// returns and `?` propagation still close the span.
pub struct PhaseGuard {
    open: Option<(Track, Cow<'static, str>)>,
    start_ns: u64,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some((at, name)) = self.open.take() else {
            return;
        };
        let end = now_ns();
        at.col.rec().spans.push(TraceSpan {
            name,
            kind: SpanKind::Phase,
            track: at.track,
            pipeline: at.pipeline,
            start_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            arg: 0,
        });
    }
}

/// Open a phase span in the trace of the query `ctx` runs, on the track
/// [`instant`] would use; inert (no clock read, no span) when the query is
/// not traced.
pub fn phase_scope(ctx: &QueryContext, name: impl Into<Cow<'static, str>>) -> PhaseGuard {
    let open = target(ctx).map(|at| (at, name.into()));
    let start_ns = if open.is_some() { now_ns() } else { 0 };
    PhaseGuard { open, start_ns }
}

impl QueryTrace {
    /// Spans on a given worker track.
    pub fn track_spans(&self, track: u32) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Check structural invariants; returns a description of the first
    /// violation. Used by the property tests.
    ///
    /// - every span lies inside `[0, wall_ns]`
    /// - spans on one track nest: any two are disjoint or one contains the
    ///   other (morsels run sequentially per worker; idles start at drain)
    /// - per worker track, busy (morsel) + idle time ≤ wall
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            let end = s
                .start_ns
                .checked_add(s.dur_ns)
                .ok_or_else(|| format!("span {:?} overflows: start+dur > u64::MAX", s.name))?;
            if end > self.wall_ns {
                return Err(format!(
                    "span {:?} ends at {end} ns, past wall {} ns",
                    s.name, self.wall_ns
                ));
            }
        }
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            let mut spans: Vec<&TraceSpan> = self
                .track_spans(*t)
                .filter(|s| s.kind != SpanKind::Instant)
                .collect();
            spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
            let mut stack: Vec<u64> = Vec::new(); // open span end times
            for s in &spans {
                let end = s.start_ns + s.dur_ns;
                while let Some(&top) = stack.last() {
                    if top <= s.start_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&top) = stack.last() {
                    if end > top {
                        return Err(format!(
                            "track {t}: span {:?} [{}, {end}) overlaps enclosing span ending at {top}",
                            s.name, s.start_ns
                        ));
                    }
                }
                stack.push(end);
            }
        }
        for t in tracks {
            if t == CONTROL_TRACK {
                continue;
            }
            let time = |kind| -> u64 {
                let spans = self.track_spans(t).filter(|s| s.kind == kind);
                spans.map(|s| s.dur_ns).sum()
            };
            let (busy, idle) = (time(SpanKind::Morsel), time(SpanKind::Idle));
            if busy + idle > self.wall_ns {
                return Err(format!(
                    "track {t}: busy {busy} + idle {idle} exceeds wall {} ns",
                    self.wall_ns
                ));
            }
        }
        Ok(())
    }

    /// One-line summary for interactive display.
    pub fn summary(&self) -> String {
        let count = |kind| self.spans.iter().filter(|s| s.kind == kind).count();
        let (morsels, idles) = (count(SpanKind::Morsel), count(SpanKind::Idle));
        let phases = count(SpanKind::Phase);
        format!(
            "{} spans ({morsels} morsels, {idles} idle, {phases} phases) over {} pipelines, {:.3} ms wall",
            self.spans.len(),
            self.pipelines.len(),
            self.wall_ns as f64 / 1e6
        )
    }

    /// Export as Chrome/Perfetto `trace_event` JSON (the `traceEvents`
    /// array format; loads directly in `ui.perfetto.dev` or
    /// `chrome://tracing`).
    ///
    /// Mapping: one trace *thread* per worker track (`tid = worker + 1`,
    /// the control track is `tid 0`), spans as `"X"` complete events with
    /// microsecond timestamps, pipelines as `"b"`/`"e"` async spans so
    /// Perfetto draws them as a lane above the workers.
    pub fn to_chrome_json(&self) -> String {
        use crate::registry::{json_f64, json_string};

        let tid = |track: u32| -> u64 {
            if track == CONTROL_TRACK {
                0
            } else {
                track as u64 + 1
            }
        };
        let us = |ns: u64| json_f64(ns as f64 / 1000.0);

        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + 16);
        events.push(format!(
            r#"{{"ph":"M","pid":1,"name":"process_name","args":{{"name":{}}}}}"#,
            json_string(&format!("joinstudy: {}", self.label))
        ));
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tids.push(CONTROL_TRACK);
        tids.sort_unstable();
        tids.dedup();
        for t in tids {
            let name = if t == CONTROL_TRACK {
                "coordinator".to_string()
            } else {
                format!("worker {t}")
            };
            events.push(format!(
                r#"{{"ph":"M","pid":1,"tid":{},"name":"thread_name","args":{{"name":{}}}}}"#,
                tid(t),
                json_string(&name)
            ));
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            events.push(format!(
                r#"{{"ph":"b","cat":"pipeline","id":{i},"pid":1,"tid":0,"ts":{},"name":{}}}"#,
                us(p.start_ns),
                json_string(&p.label)
            ));
            events.push(format!(
                r#"{{"ph":"e","cat":"pipeline","id":{i},"pid":1,"tid":0,"ts":{},"name":{}}}"#,
                us(p.end_ns),
                json_string(&p.label)
            ));
        }
        for s in &self.spans {
            match s.kind {
                SpanKind::Instant => events.push(format!(
                    r#"{{"ph":"i","s":"g","cat":"instant","pid":1,"tid":{},"ts":{},"name":{}}}"#,
                    tid(s.track),
                    us(s.start_ns),
                    json_string(&s.name)
                )),
                _ => events.push(format!(
                    r#"{{"ph":"X","cat":{},"pid":1,"tid":{},"ts":{},"dur":{},"name":{},"args":{{"rows":{}}}}}"#,
                    json_string(s.kind.name()),
                    tid(s.track),
                    us(s.start_ns),
                    us(s.dur_ns),
                    json_string(&s.name),
                    s.arg,
                )),
            }
        }
        // Counter tracks: one Perfetto "C" series per counter kind,
        // baselined to the first sample so the track starts at zero.
        if let Some(first) = self.counters.first() {
            for k in crate::pmu::CounterKind::ALL {
                if first.values.get(k).is_none() {
                    continue;
                }
                for c in &self.counters {
                    let Some(v) = c.values.get(k) else { continue };
                    let base = first.values.get(k).unwrap_or(0);
                    events.push(format!(
                        r#"{{"ph":"C","pid":1,"tid":0,"ts":{},"name":{},"args":{{"value":{}}}}}"#,
                        us(c.at_ns),
                        json_string(&format!("hw.{}", k.slug())),
                        v.saturating_sub(base)
                    ));
                }
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::PipelineLabel;
    use crate::profile::PipelineStats;
    use crate::progress::WaitState;

    #[test]
    fn lifecycle_spans_pipelines_and_idle_synthesis() {
        let ctx = QueryContext::unbounded();
        begin(&ctx, "t");
        assert!(
            ctx.record().trace.is_some(),
            "begin puts a collector on the context"
        );

        let label = PipelineLabel::new(
            "RJ partition (build)",
            WaitState::CpuPartition,
            MemPhase::Build,
        );
        let stats = Arc::new(PipelineStats::new(&ctx, label, 0, 1, false));
        let (at, traced) = ctx.record().pipeline_begin(&stats);
        let (col, pid) = traced.expect("a traced query's top-level pipeline is a lane");
        assert_eq!(pid, 0);

        let mut buf = take_worker_buffer();
        let t0 = now_ns();
        buf.push(TraceSpan {
            name: Cow::Borrowed("morsel"),
            kind: SpanKind::Morsel,
            track: 0,
            pipeline: pid,
            start_ns: t0,
            dur_ns: 10,
            arg: 42,
        });
        let drained = t0 + 10;
        let worker = Track {
            col: Arc::clone(&col),
            pipeline: pid,
            track: 0,
        };
        worker.flush(buf, drained);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let end_ns = now_ns();
        col.pipeline_end(pid, &stats.label, end_ns);
        ctx.record().pipeline_end(at, end_ns);

        {
            let _g = phase_scope(&ctx, "histogram scan");
        }
        instant(&ctx, "degradation: RJ -> BHJ");
        {
            // Inside a traced morsel, a phase and an instant land on the
            // worker's track.
            let _on_track = worker_scope(&worker);
            let _g = phase_scope(&ctx, "HHJ reload p0");
            instant(&ctx, "HHJ evict: build-0 p1 -> disk");
        }

        let trace = end(&ctx).expect("trace recorded");
        assert!(end(&ctx).is_none(), "second end returns nothing");
        assert!(ctx.record().trace.is_none(), "end takes the collector off");

        assert_eq!(trace.pipelines.len(), 1);
        assert_eq!(trace.pipelines[0].label, "RJ partition (build)");
        assert_eq!(trace.pipelines[0].phase, MemPhase::Build);
        assert!(trace.pipelines[0].end_ns >= trace.pipelines[0].start_ns);

        let kinds: Vec<SpanKind> = trace.spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::Morsel));
        assert!(kinds.contains(&SpanKind::Idle), "idle synthesized");
        assert!(kinds.contains(&SpanKind::Phase));
        assert!(kinds.contains(&SpanKind::Instant));
        let idle = trace
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Idle)
            .unwrap();
        assert_eq!(idle.name, "idle (RJ partition (build))");
        assert!(idle.dur_ns >= 900_000, "slept ~1ms before pipeline_end");
        let track_of = |name: &str| trace.spans.iter().find(|s| s.name == name).unwrap().track;
        assert_eq!(track_of("histogram scan"), CONTROL_TRACK);
        assert_eq!(track_of("degradation: RJ -> BHJ"), CONTROL_TRACK);
        assert_eq!(track_of("HHJ reload p0"), 0);
        assert_eq!(track_of("HHJ evict: build-0 p1 -> disk"), 0);

        trace.validate().expect("invariants hold");

        let json = trace.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"worker 0\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("degradation: RJ -> BHJ"));

        assert!(!trace.summary().is_empty());
    }

    #[test]
    fn validate_rejects_overlapping_spans() {
        let mk = |start, dur| TraceSpan {
            name: Cow::Borrowed("m"),
            kind: SpanKind::Morsel,
            track: 0,
            pipeline: 0,
            start_ns: start,
            dur_ns: dur,
            arg: 0,
        };
        let good = QueryTrace {
            label: "t".into(),
            wall_ns: 100,
            spans: vec![mk(0, 10), mk(10, 5), mk(20, 80)],
            pipelines: vec![],
            counters: vec![],
        };
        good.validate().unwrap();

        let bad = QueryTrace {
            label: "t".into(),
            wall_ns: 100,
            spans: vec![mk(0, 10), mk(5, 10)],
            pipelines: vec![],
            counters: vec![],
        };
        assert!(bad.validate().is_err(), "partial overlap must fail");

        let nested = QueryTrace {
            label: "t".into(),
            wall_ns: 100,
            spans: vec![mk(0, 50), mk(10, 5)],
            pipelines: vec![],
            counters: vec![],
        };
        nested.validate().unwrap();

        let past_wall = QueryTrace {
            label: "t".into(),
            wall_ns: 100,
            spans: vec![mk(90, 20)],
            pipelines: vec![],
            counters: vec![],
        };
        assert!(past_wall.validate().is_err());
    }

    #[test]
    fn disabled_helpers_are_inert() {
        let ctx = QueryContext::unbounded();
        drop(phase_scope(&ctx, "never"));
        instant(&ctx, "never");
        begin(&ctx, "t");
        let trace = end(&ctx).unwrap();
        assert!(trace.spans.is_empty() && trace.pipelines.is_empty());
    }
}
