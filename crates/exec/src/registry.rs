//! Named-counter registry, the storage of what is a property of the whole
//! process: the `mem.<phase>.*` byte accounting and `exec.source_rows` of
//! [`crate::metrics`], the `pmu.*` hardware-counter totals and the
//! `simd.*` kernel-dispatch counts. What one query measures — its spill
//! traffic, its adaptive decisions, its admission outcome — is counted on
//! its [`QueryContext`](crate::QueryContext) and its profile, not here.
//! Handles are `Arc`s resolved once by name; after resolution every update
//! is a single relaxed atomic operation, so hot paths never touch the
//! registry lock.
//!
//! Beside the registry live the workspace's two small shared pieces with no
//! better home: the log2 [`Histogram`] behind `jsys.statements`' latency
//! quantiles, and the hand-rolled JSON writer and reader.
//!
//! # Ordering contract
//!
//! All counter updates use `Ordering::Relaxed`. Reads are therefore only
//! guaranteed exact once every recording thread has been joined (thread join
//! establishes the necessary happens-before edge); mid-query snapshots are
//! advisory and may lag in-flight increments. This is the same contract the
//! executor relies on: it reads metrics only after the pipeline drain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i >= 1` holds
/// values `v` with `floor(log2(v)) == i - 1` (i.e. `2^(i-1) <= v < 2^i`).
const HIST_BUCKETS: usize = 65;

/// Log2-bucketed histogram: one relaxed `fetch_add` per recorded value.
/// Quantiles are bucket lower bounds — accurate to a factor of two, which
/// is all a latency overview needs. Not a registry metric: a histogram
/// belongs to whoever records into it (`jsys.statements` keeps one per
/// statement fingerprint).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
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
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Lower bound of the bucket containing the `q`-quantile (0.0 ..= 1.0);
    /// 0 while nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count.load(Ordering::Relaxed);
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
}

/// Name-keyed registry of counters. `counter` is get-or-create: the first
/// call under a name registers the counter, later calls return the same
/// handle.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().expect("registry lock poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Zero every registered counter (handles stay valid).
    pub fn reset_all(&self) {
        for c in self.inner.lock().expect("registry lock poisoned").values() {
            c.reset();
        }
    }

    /// Every counter as a `(name, value)` pair, sorted by name (BTreeMap
    /// order) so exports are stable across runs.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let map = self.inner.lock().expect("registry lock poisoned");
        map.iter()
            .map(|(name, c)| (name.clone(), c.get() as f64))
            .collect()
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
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);

        // A fingerprint's latency is read before any statement ran: every
        // quantile of an empty histogram is 0, not NaN or garbage.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);

        for v in [0, 1, 2, 3, 1000, 1000, 1000] {
            h.record(v);
        }
        // p99 lands in the 1000-bucket, whose lower bound is 512.
        assert_eq!(h.quantile(0.99), 512);
        assert_eq!(h.quantile(0.5), 2);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn reset_all_zeroes_every_counter() {
        let r = MetricsRegistry::new();
        let (a, b) = (r.counter("a"), r.counter("b"));
        a.add(1);
        b.add(2);
        r.reset_all();
        assert_eq!((a.get(), b.get()), (0, 0));
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = MetricsRegistry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        let snap = r.snapshot();
        assert_eq!(snap, vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
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
