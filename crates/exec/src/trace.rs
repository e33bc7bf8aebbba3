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
//! - A process-global tracer guarded by one relaxed [`enabled`] flag. The
//!   executor asks once per pipeline run ([`pipeline_begin`]) and, for a
//!   traced run, registers the pipeline under the label its submitter
//!   passed and gives every worker of the one morsel loop
//!   ([`crate::morsel`]) a track — its index in the pool, 0 inline; an
//!   untraced worker has no track and records no span.
//! - **Hot path is lock-free**: each traced worker records spans into a
//!   reusable `Vec<TraceSpan>` (timestamp pairs only) and flushes it
//!   into the global collector with a *single* mutex acquisition when it
//!   drains its pipeline — the "epoch flush": span buffers only migrate at
//!   pipeline-drain boundaries, never mid-execution.
//! - **Cold path goes straight to the collector**: pipeline-breaker
//!   finalize phases, hybrid reloads and degradation instants happen a
//!   handful of times per query, so they push under the mutex directly via
//!   [`phase_scope`] / [`instant`]. (The radix histogram scan, scatter and
//!   Bloom build are pipelines, traced like any other.) An instant raised
//!   inside a traced morsel or drain — a hybrid-join eviction, the Bloom
//!   filter switching itself off — lands on that worker's track: the
//!   morsel loop marks the thread with a [`worker_scope`], one
//!   thread-local store per traced morsel and none per untraced one.
//! - **Idle spans are synthesized, not measured**: when a worker drains it
//!   reports its drain timestamp; when the pipeline ends, the gap between
//!   each worker's drain and the pipeline end becomes an `Idle` span. That
//!   gap is exactly the partition-barrier wait the paper's Figure 10
//!   timeline shows — early-drained workers parked while a straggler
//!   finishes its morsel.
//!
//! Timestamps are nanoseconds from a process-wide monotonic epoch;
//! [`end`] normalizes them to query-relative time.
//!
//! # Scope
//!
//! One query is traced at a time: [`begin`] returns `false` while a trace
//! is active and the caller then runs untraced. The active trace is
//! additionally *owned* by the thread that called [`begin`]: the collector
//! carries a generation token and the owning thread holds the matching
//! thread-local token. [`pipeline_begin`] and the cold-path helpers
//! ([`phase_scope`], [`instant`]) consult [`thread_active`] instead of the
//! bare [`enabled`] flag, so only pipelines the owning thread submits are
//! traced, and a pool worker records spans and instants only while it runs
//! a morsel of a pipeline it took from a traced submitter. Two traced
//! queries on different sessions therefore serialize (second [`begin`]
//! refuses, that query runs untraced), and two *concurrent* queries on one
//! pool — one traced, one
//! not — cannot corrupt each other's spans: the untraced query's morsels
//! are gaps on the traced query's worker tracks.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
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
    /// A cold-path phase on the control track: a breaker's serial finalize
    /// (e.g. a hash table's allocation and inline link), a hybrid reload.
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
    /// Hardware-counter delta over this span (phase spans when counter
    /// sampling is on — see [`crate::pmu`]); boxed so the common no-counter
    /// span stays small.
    pub hw: Option<Box<crate::pmu::CounterValues>>,
}

/// One timeline sample of the control thread's cumulative hardware
/// counters (taken at pipeline begin/end and phase ends while counter
/// sampling is on). `at_ns` is query-relative after [`end`].
#[derive(Debug, Clone)]
pub struct HwSample {
    pub at_ns: u64,
    pub values: crate::pmu::CounterValues,
}

/// One pipeline run: an async span stretching over all its workers.
#[derive(Debug, Clone)]
pub struct PipelineSpan {
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Size of the team it ran on: 1 inline, else the pool's worker count.
    pub workers: u32,
}

/// A completed query trace, timestamps normalized to query start.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub label: String,
    pub wall_ns: u64,
    pub spans: Vec<TraceSpan>,
    pub pipelines: Vec<PipelineSpan>,
    /// Control-thread hardware-counter samples (empty unless counter
    /// sampling was on during the trace).
    pub counters: Vec<HwSample>,
}

struct Collector {
    label: String,
    /// Generation token of this trace; matches [`ACTIVE_TOKEN`] while the
    /// trace is live. The thread that called [`begin`] holds the same
    /// value in [`THREAD_TOKEN`] — that pairing is what scopes a trace to
    /// one query among concurrent sessions.
    token: u64,
    start_ns: u64,
    spans: Vec<TraceSpan>,
    pipelines: Vec<PipelineSpan>,
    /// `(pipeline, track, drained_at)` — consumed by [`pipeline_end`] into
    /// `Idle` spans.
    drains: Vec<(u32, u32, u64)>,
    counters: Vec<HwSample>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Token of the live trace (0 = none). Monotonic generations, never reused.
static ACTIVE_TOKEN: AtomicU64 = AtomicU64::new(0);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Reusable worker span buffer (only the capacity is reused; contents
    /// are moved into the collector at flush).
    static WORKER_BUF: RefCell<Vec<TraceSpan>> = const { RefCell::new(Vec::new()) };
    /// Token of the trace this thread owns (0 = none). Set by [`begin`] on
    /// the calling thread; checked by every cold-path helper.
    static THREAD_TOKEN: Cell<u64> = const { Cell::new(0) };
    /// `(pipeline, track)` of the traced pipeline whose morsel or drain
    /// this thread is running, while a [`worker_scope`] is open.
    static WORKER_TRACK: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
}

/// Nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Whether a trace is being recorded. One relaxed load; this is the only
/// cost tracing adds to an untraced pipeline run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the *calling thread* owns the live trace: a trace is active and
/// its token matches this thread's. This — not the bare [`enabled`] flag —
/// is what [`pipeline_begin`] and the cold-path helpers consult, so
/// concurrent sessions cannot record into a trace they did not begin.
#[inline]
pub fn thread_active() -> bool {
    if !enabled() {
        return false;
    }
    let t = THREAD_TOKEN.with(|c| c.get());
    t != 0 && t == ACTIVE_TOKEN.load(Ordering::Relaxed)
}

/// Start recording a trace owned by the calling thread. Returns `false`
/// (and records nothing) if a trace is already active — the caller should
/// then run untraced.
pub fn begin(label: &str) -> bool {
    let mut slot = COLLECTOR.lock().unwrap();
    if slot.is_some() {
        return false;
    }
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    *slot = Some(Collector {
        label: label.to_string(),
        token,
        start_ns: now_ns(),
        spans: Vec::new(),
        pipelines: Vec::new(),
        drains: Vec::new(),
        counters: Vec::new(),
    });
    ACTIVE_TOKEN.store(token, Ordering::Relaxed);
    THREAD_TOKEN.with(|c| c.set(token));
    ENABLED.store(true, Ordering::Release);
    true
}

/// Stop recording and return the trace begun by the matching [`begin`].
/// Must be called from the thread that called [`begin`] (the trace owner);
/// the engine and the tests satisfy this by construction.
pub fn end() -> Option<QueryTrace> {
    let mut slot = COLLECTOR.lock().unwrap();
    let col = slot.take()?;
    debug_assert_eq!(
        THREAD_TOKEN.with(|c| c.get()),
        col.token,
        "trace::end() must be called from the thread that called begin()"
    );
    ENABLED.store(false, Ordering::Release);
    ACTIVE_TOKEN.store(0, Ordering::Relaxed);
    THREAD_TOKEN.with(|c| c.set(0));
    let end_ns = now_ns();
    let t0 = col.start_ns;
    let mut spans = col.spans;
    for s in &mut spans {
        s.start_ns = s.start_ns.saturating_sub(t0);
    }
    let mut pipelines = col.pipelines;
    for p in &mut pipelines {
        p.start_ns = p.start_ns.saturating_sub(t0);
        p.end_ns = p.end_ns.saturating_sub(t0);
    }
    let mut counters = col.counters;
    for c in &mut counters {
        c.at_ns = c.at_ns.saturating_sub(t0);
    }
    Some(QueryTrace {
        label: col.label,
        wall_ns: end_ns.saturating_sub(t0),
        spans,
        pipelines,
        counters,
    })
}

/// Register a pipeline run under `label` (e.g. "RJ partition (build)")
/// and return its id for [`pipeline_end`] — if the calling thread owns the
/// live trace ([`thread_active`]); otherwise `None`, and the pipeline runs
/// untraced. Called for every pipeline by the executor, which is how a
/// trace contains exactly its own query's pipelines, whatever pool runs
/// them.
pub fn pipeline_begin(label: &str) -> Option<u32> {
    if !thread_active() {
        return None;
    }
    let start = now_ns();
    let hw = crate::pmu::control_sample();
    let mut slot = COLLECTOR.lock().unwrap();
    let col = slot.as_mut()?;
    let id = col.pipelines.len() as u32;
    col.pipelines.push(PipelineSpan {
        label: label.to_string(),
        start_ns: start,
        end_ns: start,
        workers: 0,
    });
    if let Some(values) = hw {
        col.counters.push(HwSample {
            at_ns: start,
            values,
        });
    }
    Some(id)
}

/// Close a pipeline span and synthesize `Idle` spans from each worker's
/// drain timestamp to the pipeline end. Must run after every worker of the
/// pipeline has flushed (the executor calls it once the run returned).
/// `workers` is the size of the team the pipeline ran on.
pub fn pipeline_end(id: u32, end_ns: u64, workers: u32) {
    let hw = crate::pmu::control_sample();
    let mut slot = COLLECTOR.lock().unwrap();
    let Some(col) = slot.as_mut() else { return };
    if let Some(values) = hw {
        col.counters.push(HwSample {
            at_ns: end_ns,
            values,
        });
    }
    let Some(p) = col.pipelines.get_mut(id as usize) else {
        return;
    };
    p.end_ns = end_ns;
    p.workers = workers;
    let label = p.label.clone();
    let mut i = 0;
    while i < col.drains.len() {
        if col.drains[i].0 == id {
            let (_, track, at) = col.drains.swap_remove(i);
            if end_ns > at {
                col.spans.push(TraceSpan {
                    name: Cow::Owned(format!("idle ({label})")),
                    kind: SpanKind::Idle,
                    track,
                    pipeline: id,
                    start_ns: at,
                    dur_ns: end_ns - at,
                    arg: 0,
                    hw: None,
                });
            }
        } else {
            i += 1;
        }
    }
}

/// Take the calling thread's reusable span buffer (empty, capacity kept).
pub fn take_worker_buffer() -> Vec<TraceSpan> {
    WORKER_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// Epoch flush: move a drained worker's spans into the collector under one
/// lock, record the drain timestamp for idle synthesis, and hand the
/// (now empty) buffer back to the thread-local slot.
pub fn flush_worker(pipeline: u32, track: u32, mut spans: Vec<TraceSpan>, drained_at: u64) {
    {
        let mut slot = COLLECTOR.lock().unwrap();
        match slot.as_mut() {
            Some(col) => {
                col.spans.append(&mut spans);
                col.drains.push((pipeline, track, drained_at));
            }
            None => spans.clear(),
        }
    }
    WORKER_BUF.with(|b| *b.borrow_mut() = spans);
}

/// Marks the calling thread as a worker of a traced pipeline for as long
/// as it lives; see [`worker_scope`].
pub struct WorkerScope {
    prev: Option<(u32, u32)>,
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        WORKER_TRACK.with(|c| c.set(self.prev));
    }
}

/// Open while a worker runs a morsel or the drain of traced pipeline
/// `pipeline` on `track`: an [`instant`] raised meanwhile lands on that
/// track. Dropping restores the previous marking, so a nested pipeline run
/// and an unwinding panic leave the thread as they found it.
pub fn worker_scope(pipeline: u32, track: u32) -> WorkerScope {
    WorkerScope {
        prev: WORKER_TRACK.with(|c| c.replace(Some((pipeline, track)))),
    }
}

/// Record a zero-duration event (e.g. an RJ→BHJ budget degradation): on
/// the worker's track inside a traced morsel or drain ([`worker_scope`]),
/// on the control track on the thread that owns the trace, and nowhere
/// else.
pub fn instant(name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    let (pipeline, track) = match WORKER_TRACK.with(Cell::get) {
        Some(on_worker) => on_worker,
        None if thread_active() => (NO_PIPELINE, CONTROL_TRACK),
        None => return,
    };
    let now = now_ns();
    if let Some(col) = COLLECTOR.lock().unwrap().as_mut() {
        col.spans.push(TraceSpan {
            name: name.into(),
            kind: SpanKind::Instant,
            track,
            pipeline,
            start_ns: now,
            dur_ns: 0,
            arg: 0,
            hw: None,
        });
    }
}

/// RAII guard for a cold-path phase span on the control track. Records on
/// drop, so early returns and `?` propagation still close the span. When
/// hardware-counter sampling is on ([`crate::pmu`]) the span carries the
/// control thread's counter delta over the phase.
pub struct PhaseGuard {
    name: Option<Cow<'static, str>>,
    start_ns: u64,
    hw_start: Option<crate::pmu::CounterValues>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(name) = self.name.take() else { return };
        let end = now_ns();
        let hw = match (self.hw_start.take(), crate::pmu::control_sample()) {
            (Some(start), Some(now)) => Some((now, Box::new(now.delta_since(&start)))),
            _ => None,
        };
        if let Some(col) = COLLECTOR.lock().unwrap().as_mut() {
            let hw_delta = hw.map(|(now, delta)| {
                col.counters.push(HwSample {
                    at_ns: end,
                    values: now,
                });
                delta
            });
            col.spans.push(TraceSpan {
                name,
                kind: SpanKind::Phase,
                track: CONTROL_TRACK,
                pipeline: NO_PIPELINE,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                arg: 0,
                hw: hw_delta,
            });
        }
    }
}

/// Open a phase span; inert (no clock read, no lock) when tracing is off
/// or when the calling thread does not own the active trace.
pub fn phase_scope(name: impl Into<Cow<'static, str>>) -> PhaseGuard {
    if !thread_active() {
        return PhaseGuard {
            name: None,
            start_ns: 0,
            hw_start: None,
        };
    }
    PhaseGuard {
        name: Some(name.into()),
        start_ns: now_ns(),
        hw_start: crate::pmu::control_sample(),
    }
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
            let busy: u64 = self
                .track_spans(t)
                .filter(|s| s.kind == SpanKind::Morsel)
                .map(|s| s.dur_ns)
                .sum();
            let idle: u64 = self
                .track_spans(t)
                .filter(|s| s.kind == SpanKind::Idle)
                .map(|s| s.dur_ns)
                .sum();
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
        let morsels = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Morsel)
            .count();
        let idles = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Idle)
            .count();
        let phases = self
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Phase)
            .count();
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
                _ => {
                    // Per-span args: rows, plus the hardware-counter delta
                    // when the span carries one (phase spans with counter
                    // sampling on).
                    let mut args = format!("\"rows\":{}", s.arg);
                    if let Some(hw) = &s.hw {
                        for k in crate::pmu::CounterKind::ALL {
                            if let Some(v) = hw.get(k) {
                                args.push_str(&format!(",\"hw_{}\":{v}", k.slug()));
                            }
                        }
                    }
                    events.push(format!(
                        r#"{{"ph":"X","cat":{},"pid":1,"tid":{},"ts":{},"dur":{},"name":{},"args":{{{args}}}}}"#,
                        json_string(s.kind.name()),
                        tid(s.track),
                        us(s.start_ns),
                        us(s.dur_ns),
                        json_string(&s.name),
                    ))
                }
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

/// Serializes tests that use the process-global tracer (this module's
/// lifecycle test and the scheduler's traced-path test share one binary).
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; exercise the whole lifecycle in one test
    // to avoid cross-test interference under the parallel runner.
    #[test]
    fn lifecycle_spans_pipelines_and_idle_synthesis() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(begin("t"));
        assert!(!begin("nested"), "second begin must refuse");
        assert!(enabled());

        let pid = pipeline_begin("RJ partition (build)").expect("this thread owns the trace");
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
            hw: None,
        });
        let drained = t0 + 10;
        flush_worker(pid, 0, buf, drained);
        std::thread::sleep(std::time::Duration::from_millis(1));
        pipeline_end(pid, now_ns(), 1);

        {
            let _g = phase_scope("histogram scan");
        }
        instant("degradation: RJ -> BHJ");

        let trace = end().expect("trace recorded");
        assert!(end().is_none(), "second end returns nothing");
        assert!(!enabled());

        assert_eq!(trace.pipelines.len(), 1);
        assert_eq!(trace.pipelines[0].label, "RJ partition (build)");
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
            hw: None,
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
        // No begin() active (other tests hold their own collector; the
        // helpers must not record into it from this thread's perspective
        // when they observe enabled() == false at their check).
        let g = phase_scope("never");
        drop(g);
        instant("never");
        // Nothing to assert beyond "does not panic / deadlock".
    }
}
