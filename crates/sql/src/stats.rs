//! Always-on serving telemetry: statement statistics, recent/active query
//! registries, the slow-query log, and the Prometheus-style exposition.
//!
//! The paper's thesis is that join decisions must be grounded in
//! measurement on a *real system*; this module is the serving side of that
//! argument. Every statement a [`crate::Session`] executes is
//! fingerprinted ([`fingerprint`]: literals normalized to `?`, whitespace
//! collapsed) and folded into a per-fingerprint [`StatEntry`] — call and
//! error counts, total/min/max latency plus a 65-bucket log₂ latency
//! histogram (the p50/p95/p99 source), rows out, spill traffic, admission
//! waits and grants, join-algorithm choices and degradation events. The
//! same record feeds a bounded ring of [`RecentQuery`] rows and, above a
//! session threshold, one JSON line in the [`SlowLog`].
//!
//! The module also owns the sampler-facing rings: the [`AshRing`] of
//! active-session-history samples (the server's wait-state sampler pushes
//! one [`AshSample`] per active query every ~10 ms) and the
//! [`TimeseriesRing`] of 1-second server gauges ([`TsSample`]). Both are
//! the same fixed-slot structure as the recent-query ring and surface as
//! `jsys.ash` / `jsys.timeseries`.
//!
//! # Overhead contract
//!
//! Collection must stay cheap enough to leave on in production:
//!
//! * The per-statement path takes two short mutex critical sections (one
//!   `HashMap` lookup to resolve the entry, one slot write in the recent
//!   ring) and otherwise updates the resolved [`StatEntry`] with *relaxed
//!   atomics only* — the same ordering contract as
//!   [`joinstudy_exec::registry`]: reads are advisory mid-flight and exact
//!   once recording threads are joined.
//! * Nothing here runs per morsel or per batch. Recording happens once per
//!   statement, after the result is materialized, so the executor's hot
//!   loops are untouched.
//! * Fingerprinting is one linear scan of the statement text.
//!
//! The system tables (`jsys.*`, materialized by [`crate::Session`]) and
//! the `METRICS` exposition are snapshot readers over these structures;
//! they pay their cost at read time, never on the execute path.

use joinstudy_exec::context::{algo_bits, QueryContext};
use joinstudy_exec::registry::{json_string, Histogram};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// How many [`RecentQuery`] rows the ring buffer keeps.
pub const RECENT_CAP: usize = 256;

/// How many [`AshSample`] rows the active-session-history ring keeps
/// (~40 s of history at the default 10 ms sampling interval with one
/// active query).
pub const ASH_CAP: usize = 4096;

/// How many [`TsSample`] rows the gauge time-series ring keeps (10
/// minutes at the 1 s tick).
pub const TIMESERIES_CAP: usize = 600;

/// Milliseconds since the Unix epoch, the timestamp unit every ring here
/// shares (0 if the clock is before the epoch).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Fixed-slot ring
// ---------------------------------------------------------------------------

/// A bounded ring of fixed slots with a head index. `head` is the next
/// slot to overwrite, which after wrap-around is also the *oldest* live
/// slot — so an oldest-first scan must start at `head`, not at slot 0
/// (slot 0 holds a newer row than the head slot once the ring has
/// wrapped).
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T: Clone> Ring<T> {
    fn new(cap: usize) -> Ring<T> {
        Ring {
            slots: vec![None; cap.max(1)],
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        self.slots[self.head] = Some(item);
        self.head = (self.head + 1) % self.slots.len();
        self.len = (self.len + 1).min(self.slots.len());
    }

    /// Oldest-first snapshot: starts at the head once full (see type
    /// docs), at slot 0 while still filling.
    fn snapshot(&self) -> Vec<T> {
        let cap = self.slots.len();
        let start = if self.len == cap { self.head } else { 0 };
        (0..self.len)
            .filter_map(|i| self.slots[(start + i) % cap].clone())
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Normalize a statement to its fingerprint: string/number literals become
/// `?`, identifiers and keywords are lowercased, whitespace collapses to
/// single spaces, literal lists collapse to one `?` (so `IN (1, 2, 3)` and
/// `IN (4)` share a fingerprint, as do multi-row `VALUES` lists), and a
/// trailing `;` is dropped.
pub fn fingerprint(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut prev_ident = false; // last pushed char was part of an identifier
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                // String literal ('' escapes a quote); dates included.
                loop {
                    match chars.next() {
                        Some('\'') if chars.peek() == Some(&'\'') => {
                            chars.next();
                        }
                        Some('\'') | None => break,
                        Some(_) => {}
                    }
                }
                out.push('?');
                prev_ident = false;
            }
            '0'..='9' if !prev_ident => {
                while matches!(chars.peek(), Some('0'..='9') | Some('.')) {
                    chars.next();
                }
                out.push('?');
                prev_ident = false;
            }
            c if c.is_whitespace() => {
                if !out.ends_with(' ') && !out.is_empty() {
                    out.push(' ');
                }
                prev_ident = false;
            }
            c => {
                out.push(c.to_ascii_lowercase());
                prev_ident = c.is_ascii_alphanumeric() || c == '_';
            }
        }
    }
    let mut s = out.trim().trim_end_matches(';').trim_end().to_string();
    // Collapse literal lists: `(?, ?, ?)` -> `(?)`, `(?), (?)` -> `(?)`.
    for pat in ["?, ?", "?,?"] {
        while s.contains(pat) {
            s = s.replace(pat, "?");
        }
    }
    for pat in ["(?), (?)", "(?),(?)"] {
        while s.contains(pat) {
            s = s.replace(pat, "(?)");
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Per-fingerprint aggregates
// ---------------------------------------------------------------------------

/// Relaxed-atomic aggregate for one statement fingerprint. Resolved once
/// under the [`StatLog`] lock, then updated lock-free.
#[derive(Debug)]
pub struct StatEntry {
    calls: AtomicU64,
    errors: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    latency: Histogram,
    rows_out: AtomicU64,
    spill_bytes: AtomicU64,
    admission_wait_ns: AtomicU64,
    granted_bytes: AtomicU64,
    degradations: AtomicU64,
    algo_mask: AtomicU64,
}

impl Default for StatEntry {
    fn default() -> StatEntry {
        StatEntry {
            calls: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            latency: Histogram::new(),
            rows_out: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            admission_wait_ns: AtomicU64::new(0),
            granted_bytes: AtomicU64::new(0),
            degradations: AtomicU64::new(0),
            algo_mask: AtomicU64::new(0),
        }
    }
}

impl StatEntry {
    fn fold(&self, rec: &StatRecord<'_>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !rec.ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_ns.fetch_add(rec.latency_ns, Ordering::Relaxed);
        self.min_ns.fetch_min(rec.latency_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(rec.latency_ns, Ordering::Relaxed);
        self.latency.record(rec.latency_ns);
        self.rows_out.fetch_add(rec.rows_out, Ordering::Relaxed);
        self.spill_bytes
            .fetch_add(rec.spill_bytes, Ordering::Relaxed);
        self.admission_wait_ns
            .fetch_add(rec.admission_wait_ns, Ordering::Relaxed);
        self.granted_bytes
            .fetch_add(rec.granted_bytes, Ordering::Relaxed);
        self.degradations
            .fetch_add(rec.degradations, Ordering::Relaxed);
        self.algo_mask.fetch_or(rec.algo_mask, Ordering::Relaxed);
    }
}

/// One statement execution, as handed to [`StatLog::record`] by the
/// session after the statement finished (success or failure).
#[derive(Debug, Clone, Copy)]
pub struct StatRecord<'a> {
    pub conn: u64,
    pub sql: &'a str,
    pub ok: bool,
    pub latency_ns: u64,
    pub rows_out: u64,
    pub spill_bytes: u64,
    pub admission_wait_ns: u64,
    pub granted_bytes: u64,
    pub degradations: u64,
    /// [`algo_bits`] mask of join shapes the statement's plan compiled.
    pub algo_mask: u64,
}

/// A read-time snapshot of one [`StatEntry`], plus its quantiles.
#[derive(Debug, Clone)]
pub struct StatementStats {
    pub fingerprint: String,
    pub calls: u64,
    pub errors: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub rows_out: u64,
    pub spill_bytes: u64,
    pub admission_wait_ns: u64,
    pub granted_bytes: u64,
    pub degradations: u64,
    /// `+`-joined join-shape label (`"bhj+rj"`), `-` when no join ran.
    pub algos: String,
}

/// One row of the bounded recent-query ring.
#[derive(Debug, Clone)]
pub struct RecentQuery {
    pub seq: u64,
    /// Completion time, milliseconds since the Unix epoch — what lets
    /// `bench_serve --ash` join a finished request against the ASH
    /// samples taken while it ran.
    pub ts_ms: u64,
    pub conn: u64,
    pub sql: String,
    pub fingerprint: String,
    pub ok: bool,
    pub latency_ns: u64,
    pub rows_out: u64,
    pub spill_bytes: u64,
    pub admission_wait_ns: u64,
    pub granted_bytes: u64,
}

#[derive(Debug)]
struct ActiveQuery {
    sql: String,
    fingerprint: String,
    state: &'static str,
    started: Instant,
    granted_bytes: u64,
    /// The statement's query context, when the caller has one — the ASH
    /// sampler reads wait state / query id / time breakdowns through it.
    ctx: Option<Arc<QueryContext>>,
}

/// A read-time snapshot of one in-flight statement.
#[derive(Debug, Clone)]
pub struct ActiveQuerySnapshot {
    pub conn: u64,
    pub state: &'static str,
    pub sql: String,
    pub elapsed_ns: u64,
    pub granted_bytes: u64,
}

/// The sampler's view of one in-flight statement: fingerprint plus the
/// live [`QueryContext`] (when the session shared one).
#[derive(Debug, Clone)]
pub struct ActiveQueryDetail {
    pub conn: u64,
    pub state: &'static str,
    pub fingerprint: String,
    pub granted_bytes: u64,
    pub ctx: Option<Arc<QueryContext>>,
}

/// The statement-statistics log: per-fingerprint aggregates, the
/// recent-query ring, and the active-query registry. One per embedded
/// [`crate::Session`]; the [`crate::SqlServer`] shares a single instance
/// across every connection (`Arc`), which is what makes `jsys.statements`
/// a server-wide view.
#[derive(Debug)]
pub struct StatLog {
    entries: Mutex<HashMap<String, Arc<StatEntry>>>,
    recent: Mutex<Ring<RecentQuery>>,
    active: Mutex<HashMap<u64, ActiveQuery>>,
    seq: AtomicU64,
    next_conn: AtomicU64,
}

impl Default for StatLog {
    fn default() -> StatLog {
        StatLog::new()
    }
}

impl StatLog {
    pub fn new() -> StatLog {
        StatLog::with_capacity(RECENT_CAP)
    }

    /// A log whose recent-query ring keeps `recent_cap` rows.
    pub fn with_capacity(recent_cap: usize) -> StatLog {
        StatLog {
            entries: Mutex::new(HashMap::new()),
            recent: Mutex::new(Ring::new(recent_cap)),
            active: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            next_conn: AtomicU64::new(1),
        }
    }

    /// Allocate a connection id (the server calls this per accept; the
    /// embedded shell uses the session default of 0).
    pub fn next_conn_id(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Fold one finished statement into the aggregates and the ring.
    /// Returns the fingerprint so callers (the slow log) can reuse it
    /// without re-scanning the statement.
    pub fn record(&self, rec: &StatRecord<'_>) -> String {
        let fp = fingerprint(rec.sql);
        let entry = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(entries.entry(fp.clone()).or_default())
        };
        entry.fold(rec);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let row = RecentQuery {
            seq,
            ts_ms: now_ms(),
            conn: rec.conn,
            sql: rec.sql.to_string(),
            fingerprint: fp.clone(),
            ok: rec.ok,
            latency_ns: rec.latency_ns,
            rows_out: rec.rows_out,
            spill_bytes: rec.spill_bytes,
            admission_wait_ns: rec.admission_wait_ns,
            granted_bytes: rec.granted_bytes,
        };
        self.recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(row);
        fp
    }

    /// Register (or update) connection `conn`'s in-flight statement. An
    /// existing entry for the same connection keeps its original start
    /// time — the server marks a statement `queued` before admission and
    /// the session re-marks it `running` after, and elapsed time should
    /// span both. `ctx` (when the caller has one) lets the ASH sampler
    /// read the statement's wait state mid-flight; an upsert without a
    /// context keeps the one already attached.
    pub fn active_upsert(
        &self,
        conn: u64,
        sql: &str,
        state: &'static str,
        granted_bytes: u64,
        ctx: Option<&Arc<QueryContext>>,
    ) {
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        match active.get_mut(&conn) {
            Some(q) if q.sql == sql => {
                q.state = state;
                q.granted_bytes = granted_bytes;
                if let Some(ctx) = ctx {
                    q.ctx = Some(Arc::clone(ctx));
                }
            }
            _ => {
                active.insert(
                    conn,
                    ActiveQuery {
                        sql: sql.to_string(),
                        fingerprint: fingerprint(sql),
                        state,
                        started: Instant::now(),
                        granted_bytes,
                        ctx: ctx.map(Arc::clone),
                    },
                );
            }
        }
    }

    /// Drop connection `conn`'s in-flight statement (it finished).
    pub fn active_end(&self, conn: u64) {
        self.active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&conn);
    }

    /// Snapshot the per-fingerprint aggregates, busiest first (by total
    /// latency). Advisory mid-flight, exact after workers join — the
    /// registry's ordering contract.
    pub fn statements_snapshot(&self) -> Vec<StatementStats> {
        let entries: Vec<(String, Arc<StatEntry>)> = {
            let map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            map.iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        let mut out: Vec<StatementStats> = entries
            .into_iter()
            .map(|(fp, e)| {
                let min = e.min_ns.load(Ordering::Relaxed);
                StatementStats {
                    fingerprint: fp,
                    calls: e.calls.load(Ordering::Relaxed),
                    errors: e.errors.load(Ordering::Relaxed),
                    total_ns: e.total_ns.load(Ordering::Relaxed),
                    min_ns: if min == u64::MAX { 0 } else { min },
                    max_ns: e.max_ns.load(Ordering::Relaxed),
                    p50_ns: e.latency.quantile(0.5),
                    p95_ns: e.latency.quantile(0.95),
                    p99_ns: e.latency.quantile(0.99),
                    rows_out: e.rows_out.load(Ordering::Relaxed),
                    spill_bytes: e.spill_bytes.load(Ordering::Relaxed),
                    admission_wait_ns: e.admission_wait_ns.load(Ordering::Relaxed),
                    granted_bytes: e.granted_bytes.load(Ordering::Relaxed),
                    degradations: e.degradations.load(Ordering::Relaxed),
                    algos: algo_bits::label(e.algo_mask.load(Ordering::Relaxed)),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }

    /// Snapshot the recent-query ring, oldest first (the scan starts at
    /// the ring head once the ring has wrapped — see [`Ring`]).
    pub fn recent_snapshot(&self) -> Vec<RecentQuery> {
        self.recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .snapshot()
    }

    /// Snapshot the in-flight statements, by connection id.
    pub fn active_snapshot(&self) -> Vec<ActiveQuerySnapshot> {
        let active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<ActiveQuerySnapshot> = active
            .iter()
            .map(|(&conn, q)| ActiveQuerySnapshot {
                conn,
                state: q.state,
                sql: q.sql.clone(),
                elapsed_ns: q.started.elapsed().as_nanos() as u64,
                granted_bytes: q.granted_bytes,
            })
            .collect();
        out.sort_by_key(|q| q.conn);
        out
    }

    /// The in-flight statements with their query contexts attached — the
    /// ASH sampler's read path.
    pub fn active_detail(&self) -> Vec<ActiveQueryDetail> {
        let active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<ActiveQueryDetail> = active
            .iter()
            .map(|(&conn, q)| ActiveQueryDetail {
                conn,
                state: q.state,
                fingerprint: q.fingerprint.clone(),
                granted_bytes: q.granted_bytes,
                ctx: q.ctx.clone(),
            })
            .collect();
        out.sort_by_key(|q| q.conn);
        out
    }

    /// Total statements recorded (== sum of per-fingerprint `calls`).
    pub fn total_recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Active session history
// ---------------------------------------------------------------------------

/// One wait-state sample of one active query, as taken by the server's
/// ASH sampler thread. `wait_state` is a
/// [`WaitState`](joinstudy_exec::progress::WaitState) name; `pipeline` is
/// the label of the query's most recently registered live pipeline (empty
/// between pipelines).
#[derive(Debug, Clone)]
pub struct AshSample {
    pub at_ms: u64,
    pub conn: u64,
    pub query_id: u64,
    pub fingerprint: String,
    pub wait_state: &'static str,
    pub pipeline: String,
    /// Source rows emitted so far across the query's live pipelines.
    pub rows: u64,
    pub granted_bytes: u64,
}

/// Bounded ring of [`AshSample`]s — `jsys.ash`. One per server; shared
/// (`Arc`) with every connection's session so any connection can query
/// the history.
#[derive(Debug)]
pub struct AshRing {
    ring: Mutex<Ring<AshSample>>,
    taken: AtomicU64,
}

impl Default for AshRing {
    fn default() -> AshRing {
        AshRing::with_capacity(ASH_CAP)
    }
}

impl AshRing {
    pub fn new() -> AshRing {
        AshRing::default()
    }

    pub fn with_capacity(cap: usize) -> AshRing {
        AshRing {
            ring: Mutex::new(Ring::new(cap)),
            taken: AtomicU64::new(0),
        }
    }

    pub fn push(&self, sample: AshSample) {
        self.taken.fetch_add(1, Ordering::Relaxed);
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sample);
    }

    /// Oldest-first snapshot of the retained samples.
    pub fn snapshot(&self) -> Vec<AshSample> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .snapshot()
    }

    /// Samples ever taken (retained or evicted).
    pub fn total_samples(&self) -> u64 {
        self.taken.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge time series
// ---------------------------------------------------------------------------

/// One 1-second tick of server-wide gauges — a row of `jsys.timeseries`.
#[derive(Debug, Clone, Default)]
pub struct TsSample {
    pub at_ms: u64,
    /// Queries waiting in the admission queue.
    pub queue_depth: u64,
    /// Admission pool bytes not currently leased out.
    pub available_bytes: u64,
    /// Admission pool bytes currently leased out.
    pub admitted_bytes: u64,
    pub pool_threads: u64,
    pub active_pipelines: u64,
    /// Statements in flight (queued or running).
    pub active_queries: u64,
    /// Cumulative spill bytes written (process-wide counter; diff adjacent
    /// rows for throughput).
    pub spill_write_bytes: u64,
    /// Cumulative spill bytes read back.
    pub spill_read_bytes: u64,
}

/// Bounded ring of [`TsSample`]s — `jsys.timeseries`. Pushed once a
/// second by the server's ticker thread.
#[derive(Debug)]
pub struct TimeseriesRing {
    ring: Mutex<Ring<TsSample>>,
}

impl Default for TimeseriesRing {
    fn default() -> TimeseriesRing {
        TimeseriesRing::with_capacity(TIMESERIES_CAP)
    }
}

impl TimeseriesRing {
    pub fn new() -> TimeseriesRing {
        TimeseriesRing::default()
    }

    pub fn with_capacity(cap: usize) -> TimeseriesRing {
        TimeseriesRing {
            ring: Mutex::new(Ring::new(cap)),
        }
    }

    pub fn push(&self, sample: TsSample) {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(sample);
    }

    /// Oldest-first snapshot of the retained ticks.
    pub fn snapshot(&self) -> Vec<TsSample> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .snapshot()
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Whether a statement of `latency_ns` crosses the slow-log `threshold_ns`
/// (0 disables the log; a latency exactly at the threshold logs).
#[inline]
pub fn should_log_slow(latency_ns: u64, threshold_ns: u64) -> bool {
    threshold_ns > 0 && latency_ns >= threshold_ns
}

#[derive(Debug)]
enum SlowSink {
    Off,
    Stderr,
    File(PathBuf),
}

/// Destination for slow-query JSON lines. Shared (`Arc`) across a server's
/// connections so `SET slow_query_log = ...` on one connection and the
/// `JOINSTUDY_SLOW_LOG` env default compose; the per-statement *threshold*
/// stays per session (`SET slow_query_ns = ...`).
#[derive(Debug)]
pub struct SlowLog {
    sink: Mutex<SlowSink>,
}

impl Default for SlowLog {
    fn default() -> SlowLog {
        SlowLog {
            sink: Mutex::new(SlowSink::Off),
        }
    }
}

impl SlowLog {
    pub fn new() -> SlowLog {
        SlowLog::default()
    }

    /// A slow log honoring `JOINSTUDY_SLOW_LOG` (`stderr`, or a file path;
    /// unset/empty means off).
    pub fn from_env() -> SlowLog {
        let log = SlowLog::new();
        if let Ok(v) = std::env::var("JOINSTUDY_SLOW_LOG") {
            log.set_target(&v);
        }
        log
    }

    /// Point the log at `target`: `off`/`` disables, `stderr` writes to
    /// standard error, anything else is a file path (append).
    pub fn set_target(&self, target: &str) {
        let sink = match target.trim() {
            "" | "off" => SlowSink::Off,
            "stderr" => SlowSink::Stderr,
            path => SlowSink::File(PathBuf::from(path)),
        };
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = sink;
    }

    /// Human-readable description of the current sink.
    pub fn describe(&self) -> String {
        match &*self.sink.lock().unwrap_or_else(|e| e.into_inner()) {
            SlowSink::Off => "off".to_string(),
            SlowSink::Stderr => "stderr".to_string(),
            SlowSink::File(p) => p.display().to_string(),
        }
    }

    /// Whether any sink is configured (lets the execute path skip building
    /// the JSON line entirely).
    pub fn enabled(&self) -> bool {
        !matches!(
            &*self.sink.lock().unwrap_or_else(|e| e.into_inner()),
            SlowSink::Off
        )
    }

    /// Write one pre-rendered JSON line. Errors are swallowed: losing a
    /// slow-log line must never fail a query.
    pub fn emit(&self, line: &str) {
        let sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        match &*sink {
            SlowSink::Off => {}
            SlowSink::Stderr => {
                let _ = writeln!(std::io::stderr(), "{line}");
            }
            SlowSink::File(path) => {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    let _ = writeln!(f, "{line}");
                }
            }
        }
    }
}

/// Everything one slow-query line carries; [`SlowEvent::to_json`] renders
/// the single-line JSON document.
#[derive(Debug, Clone)]
pub struct SlowEvent<'a> {
    pub ts_ms: u128,
    pub conn: u64,
    pub fingerprint: &'a str,
    pub sql: &'a str,
    pub ok: bool,
    pub latency_ns: u64,
    pub threshold_ns: u64,
    pub rows_out: u64,
    pub spill_bytes: u64,
    pub admission_wait_ns: u64,
    /// Worker CPU time the statement's morsels consumed (summed across
    /// workers, so it can exceed wall latency).
    pub cpu_ns: u64,
    /// Time spent blocked on spill-partition writes and read-backs.
    pub spill_io_ns: u64,
    pub granted_bytes: u64,
    pub degradations: u64,
    pub algos: &'a str,
    pub peak_bytes: u64,
}

impl SlowEvent<'_> {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ts_ms\":{},\"conn\":{},\"fingerprint\":{},\"latency_ns\":{},\
             \"threshold_ns\":{},\"ok\":{},\"rows_out\":{},\"spill_bytes\":{},\
             \"admission_wait_ns\":{},\"cpu_ns\":{},\"spill_io_ns\":{},\
             \"granted_bytes\":{},\"degradations\":{},\
             \"algos\":{},\"peak_bytes\":{},\"sql\":{}}}",
            self.ts_ms,
            self.conn,
            json_string(self.fingerprint),
            self.latency_ns,
            self.threshold_ns,
            self.ok,
            self.rows_out,
            self.spill_bytes,
            self.admission_wait_ns,
            self.cpu_ns,
            self.spill_io_ns,
            self.granted_bytes,
            self.degradations,
            json_string(self.algos),
            self.peak_bytes,
            json_string(self.sql),
        )
    }
}

// ---------------------------------------------------------------------------
// Prometheus-style text exposition
// ---------------------------------------------------------------------------

/// Sanitize a registry metric name into the exposition charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other foreign characters become
/// `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render `(name, value)` samples as Prometheus text exposition, each
/// sample prefixed `joinstudy_` with a `# TYPE ... gauge` comment.
/// Non-finite values are skipped (the exposition format has no place for
/// them that scrapers agree on).
pub fn render_exposition(samples: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (name, value) in samples {
        if !value.is_finite() {
            continue;
        }
        let name = format!("joinstudy_{}", sanitize_metric_name(name));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        if *value == value.trunc() && value.abs() < 1e15 {
            out.push_str(&format!("{name} {}\n", *value as i64));
        } else {
            out.push_str(&format!("{name} {value}\n"));
        }
    }
    out
}

/// Check a text exposition parses: every line is a comment or a
/// `name value` sample with a legal metric name and a float value.
/// Returns the number of samples.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: no sample value: {line:?}", lineno + 1))?;
        let mut chars = name.chars();
        let head_ok = chars
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            .unwrap_or(false);
        if !head_ok || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        value
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("line {}: bad sample value {value:?}", lineno + 1))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- fingerprinting (satellite: normalization units) --------------------

    #[test]
    fn fingerprint_normalizes_literals_and_whitespace() {
        assert_eq!(
            fingerprint("SELECT  count(*)\n FROM r WHERE r.k = 42;"),
            "select count(*) from r where r.k = ?"
        );
        assert_eq!(
            fingerprint("select * from t where name = 'Alice' and d < '1998-09-02'"),
            "select * from t where name = ? and d < ?"
        );
        // Same shape, different literals -> same fingerprint.
        assert_eq!(
            fingerprint("SELECT a FROM t WHERE x = 1"),
            fingerprint("select a from t  where x = 999")
        );
    }

    #[test]
    fn fingerprint_keeps_identifiers_with_digits() {
        assert_eq!(
            fingerprint("SELECT c1, l_tax2 FROM t8 WHERE c1 = 3"),
            "select c1, l_tax2 from t8 where c1 = ?"
        );
    }

    #[test]
    fn fingerprint_collapses_in_and_values_lists() {
        assert_eq!(
            fingerprint("SELECT a FROM t WHERE x IN (1, 2, 3)"),
            "select a from t where x in (?)"
        );
        assert_eq!(
            fingerprint("SELECT a FROM t WHERE x IN (7)"),
            "select a from t where x in (?)"
        );
        assert_eq!(
            fingerprint("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')"),
            "insert into t values (?)"
        );
    }

    #[test]
    fn fingerprint_distinguishes_ddl_from_select() {
        let ddl = fingerprint("CREATE TABLE t (k BIGINT NOT NULL)");
        let sel = fingerprint("SELECT k FROM t");
        assert_ne!(ddl, sel);
        assert!(ddl.starts_with("create table t"));
    }

    #[test]
    fn fingerprint_escaped_quote_and_decimal() {
        assert_eq!(
            fingerprint("SELECT a FROM t WHERE s = 'it''s' AND f < 0.05"),
            "select a from t where s = ? and f < ?"
        );
    }

    // -- aggregates ---------------------------------------------------------

    fn rec(sql: &str, latency: u64) -> StatRecord<'_> {
        StatRecord {
            conn: 1,
            sql,
            ok: true,
            latency_ns: latency,
            rows_out: 10,
            spill_bytes: 0,
            admission_wait_ns: 5,
            granted_bytes: 100,
            degradations: 0,
            algo_mask: algo_bits::BHJ,
        }
    }

    #[test]
    fn statlog_folds_by_fingerprint() {
        let log = StatLog::new();
        log.record(&rec("SELECT a FROM t WHERE x = 1", 100));
        log.record(&rec("SELECT a FROM t WHERE x = 2", 300));
        log.record(&rec("SELECT b FROM u", 50));
        let stats = log.statements_snapshot();
        assert_eq!(stats.len(), 2);
        // Busiest (by total latency) first.
        assert_eq!(stats[0].fingerprint, "select a from t where x = ?");
        assert_eq!(stats[0].calls, 2);
        assert_eq!(stats[0].total_ns, 400);
        assert_eq!(stats[0].min_ns, 100);
        assert_eq!(stats[0].max_ns, 300);
        assert_eq!(stats[0].rows_out, 20);
        assert_eq!(stats[0].admission_wait_ns, 10);
        assert_eq!(stats[0].algos, "bhj");
        assert!(stats[0].p95_ns >= stats[0].p50_ns);
        assert_eq!(stats[1].calls, 1);
        assert_eq!(log.total_recorded(), 3);
    }

    #[test]
    fn statlog_counts_errors_and_min_defaults_to_zero_when_empty() {
        let log = StatLog::new();
        let mut r = rec("SELECT oops", 10);
        r.ok = false;
        log.record(&r);
        let stats = log.statements_snapshot();
        assert_eq!(stats[0].errors, 1);
        assert_eq!(stats[0].calls, 1);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let log = StatLog::with_capacity(3);
        for i in 0..5 {
            log.record(&rec("SELECT a FROM t", 10 + i));
        }
        let recent = log.recent_snapshot();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 3, "oldest two rows evicted");
        assert_eq!(recent[2].seq, 5);
        assert_eq!(log.total_recorded(), 5);
    }

    #[test]
    fn recent_ring_stays_oldest_first_after_wrapping_full_capacity() {
        // Overflow the default 256-slot ring. After wrap-around the ring
        // head is in the middle of the slot array; an oldest-first scan
        // that started at slot 0 would splice the newest 40 rows in front
        // of the oldest — the exact bug this ring's head-based scan fixes.
        let log = StatLog::new();
        let total = RECENT_CAP as u64 + 40;
        for i in 0..total {
            log.record(&rec("SELECT a FROM t", 10 + i));
        }
        let recent = log.recent_snapshot();
        assert_eq!(recent.len(), RECENT_CAP);
        assert_eq!(recent[0].seq, 41, "oldest retained row after 40 evictions");
        assert_eq!(recent.last().unwrap().seq, total);
        for w in recent.windows(2) {
            assert!(
                w[0].seq < w[1].seq,
                "oldest-first must be monotone across the wrap point: {} then {}",
                w[0].seq,
                w[1].seq
            );
        }
        assert!(recent[0].ts_ms > 0, "rows carry an epoch timestamp");
    }

    #[test]
    fn active_registry_tracks_state_and_preserves_start() {
        let log = StatLog::new();
        log.active_upsert(7, "SELECT 1", "queued", 0, None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.active_upsert(7, "SELECT 1", "running", 4096, None);
        let snap = log.active_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].state, "running");
        assert_eq!(snap[0].granted_bytes, 4096);
        assert!(
            snap[0].elapsed_ns >= 2_000_000,
            "elapsed spans the queued phase: {}",
            snap[0].elapsed_ns
        );
        log.active_end(7);
        assert!(log.active_snapshot().is_empty());
    }

    #[test]
    fn active_detail_carries_context_across_state_flips() {
        let log = StatLog::new();
        let ctx = QueryContext::unbounded();
        log.active_upsert(3, "SELECT 1", "queued", 0, Some(&ctx));
        // The running upsert without a context keeps the attached one.
        log.active_upsert(3, "SELECT 1", "running", 64, None);
        let detail = log.active_detail();
        assert_eq!(detail.len(), 1);
        assert_eq!(detail[0].fingerprint, "select ?");
        assert_eq!(detail[0].state, "running");
        assert!(
            Arc::ptr_eq(detail[0].ctx.as_ref().unwrap(), &ctx),
            "sampler sees the statement's own context"
        );
    }

    // -- ASH / timeseries rings ---------------------------------------------

    fn ash(at_ms: u64) -> AshSample {
        AshSample {
            at_ms,
            conn: 1,
            query_id: at_ms,
            fingerprint: "select ?".to_string(),
            wait_state: "cpu_probe",
            pipeline: "probe".to_string(),
            rows: at_ms * 100,
            granted_bytes: 0,
        }
    }

    #[test]
    fn ash_ring_is_bounded_and_oldest_first() {
        let ring = AshRing::with_capacity(4);
        for i in 1..=10 {
            ring.push(ash(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].at_ms, 7, "oldest retained sample");
        assert_eq!(snap[3].at_ms, 10);
        assert_eq!(ring.total_samples(), 10, "evicted samples still counted");
    }

    #[test]
    fn timeseries_ring_is_bounded_and_oldest_first() {
        let ring = TimeseriesRing::with_capacity(3);
        for i in 1..=5 {
            ring.push(TsSample {
                at_ms: i,
                queue_depth: i,
                ..TsSample::default()
            });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].at_ms, 3);
        assert_eq!(snap[2].at_ms, 5);
        assert_eq!(snap[2].queue_depth, 5);
    }

    // -- slow log (satellite: threshold boundaries) -------------------------

    #[test]
    fn slow_threshold_boundaries() {
        assert!(!should_log_slow(999, 0), "threshold 0 disables");
        assert!(!should_log_slow(0, 0));
        assert!(!should_log_slow(999, 1000), "just under");
        assert!(should_log_slow(1000, 1000), "exactly at threshold logs");
        assert!(should_log_slow(1001, 1000));
        assert!(should_log_slow(u64::MAX, 1));
    }

    #[test]
    fn slow_event_renders_one_json_line() {
        let ev = SlowEvent {
            ts_ms: 1,
            conn: 2,
            fingerprint: "select ?",
            sql: "SELECT 'x\n'",
            ok: true,
            latency_ns: 5_000,
            threshold_ns: 1_000,
            rows_out: 3,
            spill_bytes: 0,
            admission_wait_ns: 10,
            cpu_ns: 4_000,
            spill_io_ns: 250,
            granted_bytes: 64,
            degradations: 0,
            algos: "-",
            peak_bytes: 128,
        };
        let line = ev.to_json();
        assert!(!line.contains('\n'), "must be a single line: {line}");
        assert!(line.contains("\"latency_ns\":5000"), "{line}");
        assert!(
            line.contains("\"admission_wait_ns\":10,\"cpu_ns\":4000,\"spill_io_ns\":250"),
            "wait-state breakdown rides along: {line}"
        );
        assert!(line.contains("\"sql\":\"SELECT 'x\\n'\""), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn slowlog_writes_to_file_and_describes_sinks() {
        let dir = std::env::temp_dir().join(format!("joinstudy_slowlog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let log = SlowLog::new();
        assert!(!log.enabled());
        assert_eq!(log.describe(), "off");
        log.set_target(path.to_str().unwrap());
        assert!(log.enabled());
        log.emit("{\"a\":1}");
        log.emit("{\"a\":2}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"a\":1}\n{\"a\":2}\n");
        log.set_target("off");
        assert!(!log.enabled());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- exposition ---------------------------------------------------------

    #[test]
    fn exposition_sanitizes_and_validates() {
        assert_eq!(
            sanitize_metric_name("admission.wait_ns.p95"),
            "admission_wait_ns_p95"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        let samples = vec![
            ("pool.active_pipelines".to_string(), 3.0),
            ("spill.write_bytes".to_string(), 1.5e9),
            ("bad".to_string(), f64::NAN),
        ];
        let text = render_exposition(&samples);
        assert!(text.contains("# TYPE joinstudy_pool_active_pipelines gauge"));
        assert!(text.contains("joinstudy_pool_active_pipelines 3\n"));
        assert!(text.contains("joinstudy_spill_write_bytes 1500000000\n"));
        assert!(!text.contains("bad"), "non-finite values are skipped");
        assert_eq!(validate_exposition(&text), Ok(2));
    }

    #[test]
    fn exposition_empty_histogram_has_zero_quantiles_and_stays_valid() {
        // An idle server scrapes before any statement ran: every latency
        // histogram is empty, every quantile must render as a parseable 0
        // rather than NaN or a missing sample.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        for (_, v) in h.quantiles() {
            assert_eq!(v, 0, "zero-sample quantiles are 0");
        }
        let samples = vec![
            (
                "statements.latency_ns.p50".to_string(),
                h.quantile(0.5) as f64,
            ),
            (
                "statements.latency_ns.p99".to_string(),
                h.quantile(0.99) as f64,
            ),
        ];
        let text = render_exposition(&samples);
        assert!(
            text.contains("joinstudy_statements_latency_ns_p50 0\n"),
            "{text}"
        );
        assert_eq!(validate_exposition(&text), Ok(2));
    }

    #[test]
    fn exposition_sanitizes_fingerprints_with_braces_and_utf8() {
        // Fingerprints flow into metric names (per-statement gauges);
        // brace characters collide with Prometheus label syntax and
        // multi-byte characters are outside the charset — both must
        // flatten to `_`.
        let fp = fingerprint("SELECT 名前 FROM t{} WHERE tag = '{\"k\":1}' AND x = 42");
        assert!(fp.contains('{') && fp.contains('}'), "precondition: {fp}");
        assert!(!fp.is_ascii(), "precondition: {fp}");
        let name = sanitize_metric_name(&format!("stmt.{fp}.p99_ns"));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "sanitized name stays in the exposition charset: {name}"
        );
        let text = render_exposition(&[(format!("stmt.{fp}.p99_ns"), 7.0)]);
        assert!(!text.contains('{') && !text.contains('}'), "{text}");
        assert_eq!(validate_exposition(&text), Ok(1));
        // Braces alone, as a scraper would inject via label syntax.
        let braced = sanitize_metric_name("q{instance=\"a\"}.count");
        assert!(
            !braced.contains('{') && !braced.contains('}') && !braced.contains('"'),
            "{braced}"
        );
    }

    #[test]
    fn validate_rejects_malformed_exposition() {
        assert!(validate_exposition("").is_err(), "no samples");
        assert!(validate_exposition("# only comments\n").is_err());
        assert!(validate_exposition("no-dashes-allowed 1\n").is_err());
        assert!(validate_exposition("name notanumber\n").is_err());
        assert!(validate_exposition("nameonly\n").is_err());
        assert_eq!(validate_exposition("ok_name 1.25\n"), Ok(1));
    }

    #[test]
    fn concurrent_recording_conserves_calls() {
        let log = Arc::new(StatLog::new());
        let threads = 8;
        let per = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..per {
                        let sql = format!("SELECT a FROM t WHERE x = {}", t * per + i);
                        log.record(&rec(&sql, 10));
                    }
                });
            }
        });
        let stats = log.statements_snapshot();
        assert_eq!(stats.len(), 1, "all statements share one fingerprint");
        assert_eq!(stats[0].calls, (threads * per) as u64);
        assert_eq!(log.total_recorded(), (threads * per) as u64);
    }
}
