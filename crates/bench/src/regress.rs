//! Benchmark regression gating against a committed baseline.
//!
//! `bench_check` (the `cargo run -p joinstudy-bench --bin bench_check`
//! entrypoint) runs a small fixed workload, snapshots the engine's metrics
//! registry, and compares the result against `results/baseline.json`. This
//! module holds the pieces that need tests: the baseline schema (read
//! through the workspace's one JSON reader, [`joinstudy_exec::registry::parse_json`])
//! and the tolerance-aware comparison.
//!
//! # Baseline schema
//!
//! ```json
//! {
//!   "schema": 1,
//!   "workload": {"sf": 0.01, "threads": 4, "query": 3, "seed": 20260706},
//!   "metrics": {
//!     "q03.bhj.rows":     {"value": 1216, "tol": 0},
//!     "q03.bhj.wall_ms":  {"value": 5.1,  "tol": null},
//!     "q03.rj.mem.partition_pass1.write_bytes": {"value": 123456, "tol": 0.05}
//!   }
//! }
//! ```
//!
//! `tol` is a *relative* tolerance: the check fails when
//! `|current - value| > tol * max(|value|, 1)`. `tol: 0` demands an exact
//! match (row counts, deterministic byte counters); `tol: null` marks the
//! entry informational — reported but never failing (wall-clock times,
//! which vary across CI machines). A metric present in the baseline but
//! absent from the current run is always a failure: losing a counter is a
//! regression in the observability surface itself.

use joinstudy_exec::registry::{json_f64, parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One gated metric in a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    pub value: f64,
    /// Relative tolerance; `None` means informational (never fails).
    pub tol: Option<f64>,
}

/// The committed regression baseline: a workload fingerprint plus expected
/// metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Workload parameters the current run must reproduce exactly
    /// (sf, threads, query, seed, ...). Mismatched parameters make every
    /// comparison meaningless, so they fail the run up front.
    pub workload: BTreeMap<String, f64>,
    pub metrics: BTreeMap<String, BaselineEntry>,
}

impl Baseline {
    /// Parse `results/baseline.json` content.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = parse_json(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("baseline missing \"schema\"")?;
        if schema != 1.0 {
            return Err(format!("unsupported baseline schema {schema}"));
        }
        let mut workload = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("workload") {
            for (k, v) in members {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("workload.{k} is not a number"))?;
                workload.insert(k.clone(), v);
            }
        }
        let mut metrics = BTreeMap::new();
        match doc.get("metrics") {
            Some(Json::Obj(members)) => {
                for (name, entry) in members {
                    let value = entry
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metrics.{name} missing \"value\""))?;
                    let tol = match entry.get("tol") {
                        Some(Json::Null) | None => None,
                        Some(Json::Num(t)) if *t >= 0.0 => Some(*t),
                        _ => return Err(format!("metrics.{name} has a bad \"tol\"")),
                    };
                    metrics.insert(name.clone(), BaselineEntry { value, tol });
                }
            }
            _ => return Err("baseline missing \"metrics\" object".into()),
        }
        Ok(Baseline { workload, metrics })
    }

    /// Serialize (the `--write-baseline` path). Row counts and byte
    /// counters get the given default tolerance; `wall_ms` entries are
    /// written informational because CI wall-clock is not reproducible.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"workload\": {");
        let mut first = true;
        for (k, v) in &self.workload {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{k}\": {}", json_f64(*v));
        }
        out.push_str("},\n  \"metrics\": {\n");
        let mut first = true;
        for (name, e) in &self.metrics {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let tol = match e.tol {
                Some(t) => json_f64(t),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    \"{name}\": {{\"value\": {}, \"tol\": {tol}}}",
                json_f64(e.value)
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Outcome of one baseline-vs-current comparison.
#[derive(Debug, Default)]
pub struct Report {
    /// Hard failures: exceeded tolerance, missing metric, or workload
    /// mismatch. Non-empty means exit nonzero.
    pub failures: Vec<String>,
    /// Informational lines (within tolerance, `tol: null` drift, new
    /// metrics absent from the baseline).
    pub notes: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a current run against the baseline.
pub fn compare(
    baseline: &Baseline,
    workload: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> Report {
    let mut report = Report::default();
    for (k, expected) in &baseline.workload {
        match workload.get(k) {
            Some(got) if got == expected => {}
            Some(got) => report.failures.push(format!(
                "workload mismatch: {k} = {got} but baseline was recorded at {expected}"
            )),
            None => report
                .failures
                .push(format!("workload parameter {k} missing from current run")),
        }
    }
    for (name, entry) in &baseline.metrics {
        let Some(&got) = current.get(name) else {
            report
                .failures
                .push(format!("{name}: missing from current run"));
            continue;
        };
        let delta = got - entry.value;
        let rel = delta / entry.value.abs().max(1.0);
        match entry.tol {
            None => {
                report.notes.push(format!(
                    "{name}: {got} vs {} (informational, {:+.1}%)",
                    entry.value,
                    rel * 100.0
                ));
            }
            Some(tol) if delta.abs() <= tol * entry.value.abs().max(1.0) => {
                report
                    .notes
                    .push(format!("{name}: {got} ok (tol {:.1}%)", tol * 100.0));
            }
            Some(tol) => {
                report.failures.push(format!(
                    "{name}: {got} vs baseline {} exceeds tol {:.1}% ({:+.2}%)",
                    entry.value,
                    tol * 100.0,
                    rel * 100.0
                ));
            }
        }
    }
    for name in current.keys() {
        if !baseline.metrics.contains_key(name) {
            report
                .notes
                .push(format!("{name}: not in baseline (new metric)"));
        }
    }
    report
}

/// Render a current-run metrics map as a flat JSON object (the artifact
/// uploaded next to the baseline for debugging failed gates).
pub fn metrics_json(workload: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n  \"workload\": {");
    let mut first = true;
    for (k, v) in workload {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{k}\": {}", json_f64(*v));
    }
    out.push_str("},\n  \"metrics\": {\n");
    let mut first = true;
    for (k, v) in current {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "    \"{k}\": {}", json_f64(*v));
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn baseline_round_trips() {
        let b = Baseline {
            workload: wl(&[("sf", 0.01), ("threads", 4.0)]),
            metrics: [
                (
                    "q03.bhj.rows".to_string(),
                    BaselineEntry {
                        value: 1216.0,
                        tol: Some(0.0),
                    },
                ),
                (
                    "q03.bhj.wall_ms".to_string(),
                    BaselineEntry {
                        value: 5.25,
                        tol: None,
                    },
                ),
            ]
            .into(),
        };
        let parsed = Baseline::parse(&b.render()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn compare_passes_on_identical_run() {
        let b = Baseline::parse(
            r#"{"schema": 1, "workload": {"sf": 0.01},
                "metrics": {"rows": {"value": 100, "tol": 0},
                            "wall_ms": {"value": 9, "tol": null}}}"#,
        )
        .unwrap();
        let report = compare(
            &b,
            &wl(&[("sf", 0.01)]),
            &wl(&[("rows", 100.0), ("wall_ms", 42.0), ("extra", 1.0)]),
        );
        assert!(report.passed(), "{:?}", report.failures);
        // wall_ms drift and the unknown metric are notes, not failures.
        assert!(report.notes.iter().any(|n| n.contains("informational")));
        assert!(report.notes.iter().any(|n| n.contains("new metric")));
    }

    #[test]
    fn compare_fails_on_doctored_baseline() {
        let b = Baseline::parse(
            r#"{"schema": 1, "workload": {},
                "metrics": {"rows": {"value": 99, "tol": 0}}}"#,
        )
        .unwrap();
        let report = compare(&b, &wl(&[]), &wl(&[("rows", 100.0)]));
        assert!(!report.passed());
        assert!(report.failures[0].contains("rows"));
    }

    #[test]
    fn compare_fails_on_missing_metric_and_workload_mismatch() {
        let b = Baseline::parse(
            r#"{"schema": 1, "workload": {"threads": 4},
                "metrics": {"gone": {"value": 1, "tol": 0.1}}}"#,
        )
        .unwrap();
        let report = compare(&b, &wl(&[("threads", 2.0)]), &wl(&[]));
        assert_eq!(report.failures.len(), 2);
    }

    #[test]
    fn relative_tolerance_scales_with_value() {
        let b = Baseline::parse(
            r#"{"schema": 1, "workload": {},
                "metrics": {"bytes": {"value": 1000, "tol": 0.05}}}"#,
        )
        .unwrap();
        assert!(compare(&b, &wl(&[]), &wl(&[("bytes", 1049.0)])).passed());
        assert!(!compare(&b, &wl(&[]), &wl(&[("bytes", 1051.0)])).passed());
    }
}
