//! The regression gate's one number format and its one comparison.
//!
//! `bench_check` (the `cargo run -p joinstudy-bench --bin bench_check`
//! entrypoint) runs a small pinned workload and records its deterministic
//! counters as a [`Run`]. The committed `results/baseline.json` is a run
//! like any other, written by the same [`Run::to_json`] and read through the
//! workspace's one JSON reader ([`joinstudy_exec::registry::parse_json`]):
//!
//! ```json
//! {
//!   "workload": {"query": 3, "seed": 20260706, "sf": 0.01, "threads": 4},
//!   "metrics": {
//!     "q03.bhj.rows": 10,
//!     "q03.rj.mem.partition_pass1.write_bytes": 76448
//!   }
//! }
//! ```
//!
//! [`compare`] demands equality: every counter the gate records is a pure
//! function of the pinned workload, so any difference — a changed value, a
//! missing or an extra counter, a changed workload — is a failure.

use joinstudy_exec::registry::{json_f64, parse_json, Json};
use std::collections::BTreeMap;

/// One run of the gate's workload: its parameters and its counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Run {
    pub workload: BTreeMap<String, f64>,
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Read the text [`Run::to_json`] writes.
    pub fn parse(text: &str) -> Result<Run, String> {
        let doc = parse_json(text)?;
        let numbers = |key: &str| -> Result<BTreeMap<String, f64>, String> {
            let Some(Json::Obj(members)) = doc.get(key) else {
                return Err(format!("missing \"{key}\" object"));
            };
            let number = |(name, v): &(String, Json)| match v.as_f64() {
                Some(v) => Ok((name.clone(), v)),
                None => Err(format!("{key}.{name} is not a number")),
            };
            members.iter().map(number).collect()
        };
        Ok(Run {
            workload: numbers("workload")?,
            metrics: numbers("metrics")?,
        })
    }

    /// The one writer: `results/bench_current.json` and, copied over, the
    /// baseline.
    pub fn to_json(&self) -> String {
        let fields = |map: &BTreeMap<String, f64>, sep| {
            let field = |(k, v): (&String, &f64)| format!("\"{k}\": {}", json_f64(*v));
            map.iter().map(field).collect::<Vec<_>>().join(sep)
        };
        format!(
            "{{\n  \"workload\": {{{}}},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
            fields(&self.workload, ", "),
            fields(&self.metrics, ",\n    ")
        )
    }
}

/// Every difference between `current` and `baseline`, one line each; empty
/// means the gate passes.
pub fn compare(baseline: &Run, current: &Run) -> Vec<String> {
    let mut failures = Vec::new();
    for (what, want, got) in [
        ("workload", &baseline.workload, &current.workload),
        ("metric", &baseline.metrics, &current.metrics),
    ] {
        for (name, expected) in want {
            let failure = match got.get(name) {
                Some(value) if value == expected => continue,
                Some(value) => format!("{what} {name}: {value}, baseline {expected}"),
                None => format!("{what} {name}: missing from the current run"),
            };
            failures.push(failure);
        }
        let extra = got.keys().filter(|name| !want.contains_key(*name));
        failures.extend(extra.map(|name| format!("{what} {name}: not in the baseline")));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &[(&str, f64)], metrics: &[(&str, f64)]) -> Run {
        let map = |pairs: &[(&str, f64)]| pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Run {
            workload: map(workload),
            metrics: map(metrics),
        }
    }

    fn baseline() -> Run {
        run(
            &[("sf", 0.01), ("threads", 4.0)],
            &[
                ("q03.bhj.rows", 10.0),
                ("q03.rj.mem.partition_pass1.write_bytes", 76448.0),
                ("q03.hhj.spill.write_bytes", 0.0),
            ],
        )
    }

    #[test]
    fn an_identical_run_passes() {
        assert_eq!(compare(&baseline(), &baseline()), Vec::<String>::new());
    }

    #[test]
    fn a_byte_counter_off_by_one_fails() {
        let mut current = baseline();
        *current
            .metrics
            .get_mut("q03.rj.mem.partition_pass1.write_bytes")
            .unwrap() += 1.0;
        let failures = compare(&baseline(), &current);
        assert_eq!(
            failures,
            ["metric q03.rj.mem.partition_pass1.write_bytes: 76449, baseline 76448"]
        );
    }

    #[test]
    fn a_missing_or_an_extra_counter_fails() {
        let mut current = baseline();
        current.metrics.remove("q03.bhj.rows");
        assert_eq!(
            compare(&baseline(), &current),
            ["metric q03.bhj.rows: missing from the current run"]
        );
        let mut current = baseline();
        current.metrics.insert("q03.bhj.wall_ms".into(), 2.1);
        assert_eq!(
            compare(&baseline(), &current),
            ["metric q03.bhj.wall_ms: not in the baseline"]
        );
    }

    #[test]
    fn a_workload_mismatch_fails() {
        let mut current = baseline();
        current.workload.insert("threads".into(), 2.0);
        assert_eq!(
            compare(&baseline(), &current),
            ["workload threads: 2, baseline 4"]
        );
    }

    #[test]
    fn the_current_run_parses_back_as_the_baseline() {
        let text = baseline().to_json();
        assert_eq!(Run::parse(&text), Ok(baseline()));
        assert!(text.starts_with("{\n  \"workload\": {\"sf\": 0.01, \"threads\": 4},"));
        assert!(Run::parse(r#"{"workload": {}}"#).is_err());
        assert!(Run::parse(r#"{"workload": {}, "metrics": {"x": "1"}}"#).is_err());
    }

    #[test]
    fn the_committed_baseline_is_a_run_and_a_one_byte_change_fails_it() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baseline.json");
        let committed = Run::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(Run::parse(&committed.to_json()).as_ref(), Ok(&committed));
        let mut doctored = committed.clone();
        let bytes = doctored
            .metrics
            .get_mut("q03.brj.mem.join.read_bytes")
            .unwrap();
        *bytes += 1.0;
        assert_eq!(compare(&doctored, &committed).len(), 1);
    }
}
