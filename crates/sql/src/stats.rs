//! Always-on serving telemetry: statement statistics, the recent/active
//! query registries, and the active-session-history ring.
//!
//! The paper's thesis is that join decisions must be grounded in
//! measurement on a *real system*; this module is the serving side of that
//! argument. Every statement a [`crate::Session`] executes is
//! fingerprinted ([`fingerprint`]: literals normalized to `?`, whitespace
//! collapsed) and folded into a per-fingerprint [`StatEntry`] — call and
//! error counts, total/min/max latency plus a 65-bucket log₂ latency
//! histogram (the p50/p95/p99 source), rows out, spill traffic, admission
//! waits and grants, join-algorithm choices and degradation events. The
//! same record feeds a bounded ring of [`RecentQuery`] rows.
//!
//! The module also owns the sampler-facing [`AshRing`] of
//! active-session-history samples (the server's wait-state sampler pushes
//! one [`AshSample`] per active query every ~10 ms). It is the same
//! fixed-slot structure as the recent-query ring and surfaces as
//! `jsys.ash`.
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
//! The system tables (`jsys.*`, materialized by [`crate::Session`]) are
//! snapshot readers over these structures; they pay their cost at read
//! time, never on the execute path.

use joinstudy_exec::context::{algo_bits, QueryContext};
use joinstudy_exec::registry::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// How many [`RecentQuery`] rows the ring buffer keeps.
pub const RECENT_CAP: usize = 256;

/// How many [`AshSample`] rows the active-session-history ring keeps
/// (~40 s of history at the default 10 ms sampling interval with one
/// active query).
pub const ASH_CAP: usize = 4096;

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
    /// Completion time, milliseconds since the Unix epoch — what lets a
    /// reader join a finished request against the `jsys.ash` samples
    /// taken while it ran.
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
        }
    }

    pub fn push(&self, sample: AshSample) {
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

    // -- ASH ring ---------------------------------------------------------

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
