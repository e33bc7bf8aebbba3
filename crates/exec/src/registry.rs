//! Named-metric registry: counters, gauges and log-scale histograms.
//!
//! The registry is the storage layer behind [`crate::metrics`] (which keeps
//! its original byte-accounting API) and the scheduler's trace-path
//! histograms. Handles are `Arc`s resolved once by name; after resolution
//! every update is a single relaxed atomic operation, so hot paths never
//! touch the registry lock.
//!
//! # Ordering contract
//!
//! All metric updates use `Ordering::Relaxed`. Reads are therefore only
//! guaranteed exact once every recording thread has been joined (thread join
//! establishes the necessary happens-before edge); mid-query snapshots are
//! advisory and may lag in-flight increments. This is the same contract the
//! executor relies on: it reads metrics only after the pipeline drain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic counter (relaxed atomics; see module docs for the contract).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Read the current value and reset it to zero in one atomic step.
    pub fn take(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1` holds
/// values `v` with `floor(log2(v)) == i - 1` (i.e. `2^(i-1) <= v < 2^i`).
pub const HIST_BUCKETS: usize = 65;

/// Log2-bucketed histogram for latencies, depths and fill levels.
///
/// Recording is one relaxed `fetch_add` per value (plus count and sum), so
/// it is cheap enough for the traced scheduler's per-morsel path. Quantiles
/// are bucket lower bounds — accurate to a factor of two, which is all a
/// regression gate or a latency overview needs.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Lower bound of the bucket containing the `q`-quantile (0.0 ..= 1.0).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << (HIST_BUCKETS - 2)
    }

    /// The standard latency quantile set as `(label, lower_bound)` pairs:
    /// p50 / p90 / p95 / p99. One pass per quantile over 65 buckets — cheap
    /// enough for any snapshot path.
    pub fn quantiles(&self) -> [(&'static str, u64); 4] {
        [
            ("p50", self.quantile(0.5)),
            ("p90", self.quantile(0.9)),
            ("p95", self.quantile(0.95)),
            ("p99", self.quantile(0.99)),
        ]
    }

    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                if c == 0 {
                    None
                } else {
                    Some((if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
                }
            })
            .collect()
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Name-keyed registry of metrics. `counter`/`gauge`/`histogram` are
/// get-or-create: the first call under a name registers the metric, later
/// calls return the same handle. Registering one name with two different
/// kinds panics — that is a programming error, not a runtime condition.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset_all(&self) {
        let map = self.inner.lock().unwrap();
        for m in map.values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// All counters and gauges as flat `(name, value)` pairs, plus derived
    /// scalar views of each histogram (`<name>.count` / `.sum` / `.p50` /
    /// `.p90` / `.p95` / `.p99`). Sorted by name (BTreeMap order) so exports
    /// are stable across runs.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let map = self.inner.lock().unwrap();
        let mut out = Vec::new();
        for (name, m) in map.iter() {
            match m {
                Metric::Counter(c) => out.push((name.clone(), c.get() as f64)),
                Metric::Gauge(g) => out.push((name.clone(), g.get() as f64)),
                Metric::Histogram(h) => {
                    out.push((format!("{name}.count"), h.count() as f64));
                    out.push((format!("{name}.sum"), h.sum() as f64));
                    for (label, q) in h.quantiles() {
                        out.push((format!("{name}.{label}"), q as f64));
                    }
                }
            }
        }
        out
    }

    /// Flat metrics JSON: `{"name": value, ...}` using the same flattening
    /// as [`MetricsRegistry::snapshot`].
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut s = String::from("{");
        for (i, (name, v)) in snap.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{}", json_string(name), json_f64(*v)));
        }
        s.push('}');
        s
    }
}

/// `v` as a JSON number (integers without a fraction), `null` when not
/// finite.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

/// `s` as a quoted JSON string literal — the one escaper every hand-rolled
/// JSON writer in the workspace uses.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value — the reading half of the hand-rolled JSON above
/// (the workspace has no serde), and its one reader: `results/baseline.json`
/// and `results/calibration.json` both come in through [`parse_json`]. Just
/// enough of the grammar for those files (no unicode escapes beyond
/// `\uXXXX`, no exponent edge cases beyond what `f64::from_str` accepts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered; baselines are small so lookup is linear.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short reason.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {s:?} at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".into())
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by [`crate::metrics`] and the scheduler.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_take() {
        let r = MetricsRegistry::new();
        let c = r.counter("x");
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(r.counter("x").get(), 6, "same handle by name");
        assert_eq!(c.take(), 6);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);

        // An idle server reads its latency histograms before any statement
        // ran: every quantile of an empty histogram is 0, not NaN or garbage.
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
        for (_, v) in h.quantiles() {
            assert_eq!(v, 0, "zero-sample quantiles are 0");
        }

        for v in [0, 1, 2, 3, 1000, 1000, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 3006);
        // p99 lands in the 1000-bucket, whose lower bound is 512.
        assert_eq!(h.quantile(0.99), 512);
        assert_eq!(h.quantile(0.0), 0);
        let nz = h.nonzero_buckets();
        assert!(nz.iter().any(|&(lo, c)| lo == 512 && c == 3));
    }

    #[test]
    fn reset_all_zeroes_every_kind() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        let g = r.gauge("g");
        let h = r.histogram("h");
        c.add(1);
        g.set(2);
        h.record(3);
        r.reset_all();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn snapshot_and_json_are_stable() {
        let r = MetricsRegistry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        let snap = r.snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "b");
        assert_eq!(r.to_json(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn snapshot_flattens_histogram_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        let snap: std::collections::HashMap<String, f64> = r.snapshot().into_iter().collect();
        for key in [
            "lat.count",
            "lat.sum",
            "lat.p50",
            "lat.p90",
            "lat.p95",
            "lat.p99",
        ] {
            assert!(snap.contains_key(key), "missing {key}");
        }
        assert_eq!(snap["lat.count"], 5.0);
        assert_eq!(snap["lat.p99"], 512.0, "p99 lower-bounds the 1000 bucket");
        let qs = h.quantiles();
        assert_eq!(qs[2].0, "p95");
        assert!(qs[2].1 >= qs[0].1, "p95 >= p50");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("dual");
        r.gauge("dual");
    }

    #[test]
    fn parses_nested_json() {
        let doc =
            parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny A"}, "d": null, "e": true}"#)
                .unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0)
            ]))
        );
        assert_eq!(
            doc.get("b").unwrap().get("c"),
            Some(&Json::Str("x\ny A".into()))
        );
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("\"open").is_err());
    }
}
