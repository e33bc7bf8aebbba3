//! `compare A B`: two recorded result sets side by side.
//!
//! A result set is a file of JSON lines as `--record` appends them, one per
//! run. For each workload and metric the report gives both medians, both
//! run-to-run spreads (interquartile distance over the median, as Python's
//! `statistics.quantiles(n=4)` defines the quartiles), the relative change
//! signed so that positive is worse, and whether it is inside the metric's
//! bound. Where a side's spread exceeds the bound the verdict is
//! `unresolved`, not `inside`: the runs cannot tell.

use crate::json::{self, Json};
use crate::manifest::{manifest, Better, Metric};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// `workload -> metric -> values`, one value per recorded run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{path}:{}: no result.metrics", n + 1))?;
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics.as_object() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Inside,
    Worse,
    Unresolved,
    /// Per-layer metrics carry no bound.
    Unbounded,
}

/// Relative change from `a` to `b`, positive when `b` is worse.
pub fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(bound: Option<f64>, worse_by: f64, spreads: [Option<f64>; 2]) -> Verdict {
    match bound {
        None => Verdict::Unbounded,
        Some(b) if spreads.iter().flatten().any(|s| *s > b) => Verdict::Unresolved,
        Some(b) if worse_by > b => Verdict::Worse,
        Some(_) => Verdict::Inside,
    }
}

/// Render the report; the second value is how many metrics got worse by
/// more than their bound.
pub fn report(a: &ResultSet, b: &ResultSet) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    let pct = |v: Option<f64>| v.map_or("     -".to_string(), |v| format!("{:5.1}%", v * 100.0));
    for workload in &manifest().workloads {
        let (Some(ma), Some(mb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        out.push_str(&format!(
            "\n{workload}\n  {:<42} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}  verdict\n",
            "metric", "median A", "iqr A", "median B", "iqr B", "worse by", "bound"
        ));
        for metric in manifest().metrics() {
            let bound = metric.bound;
            let (Some(va), Some(vb)) = (ma.get(&metric.name), mb.get(&metric.name)) else {
                continue;
            };
            let (med_a, med_b) = (median(va), median(vb));
            let worse_by = worsening(metric, med_a, med_b);
            let spreads = [spread(va), spread(vb)];
            let v = verdict(bound, worse_by, spreads);
            regressions += usize::from(v == Verdict::Worse);
            out.push_str(&format!(
                "  {:<42} {:>12.5} {:>7} {:>12.5} {:>7} {:>+7.1}% {:>6}  {}\n",
                format!("{} [{}]", metric.name, metric.unit),
                med_a,
                pct(spreads[0]),
                med_b,
                pct(spreads[1]),
                worse_by * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                match v {
                    Verdict::Inside => "inside",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                    Verdict::Unbounded => "",
                }
            ));
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bounds() {
        let metric = |name: &str| manifest().metrics().find(|m| m.name == name).unwrap();
        let (lower, higher) = (metric("bhj_s"), metric("qps"));
        assert_eq!(lower.better, Better::Lower);
        assert_eq!(higher.better, Better::Higher);
        assert!((worsening(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);

        assert_eq!(
            verdict(Some(0.1), 0.05, [Some(0.02), None]),
            Verdict::Inside
        );
        assert_eq!(
            verdict(Some(0.1), 0.15, [Some(0.02), Some(0.03)]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Some(0.1), 0.15, [Some(0.2), Some(0.03)]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(None, 0.5, [None, None]), Verdict::Unbounded);
    }

    #[test]
    fn loads_recorded_lines_and_reports() {
        let dir = std::env::temp_dir().join(format!("jsb-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = |v: f64| {
            format!(
                "{{\"workload\":\"tpch\",\"seed\":1,\"result\":{{\"correct\":true,\
                 \"metrics\":{{\"bhj_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}}}\n"
            )
        };
        let (pa, pb) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        std::fs::write(&pa, [1.0, 1.02, 0.98].map(line).concat()).unwrap();
        std::fs::write(&pb, [1.3, 1.31, 1.29].map(line).concat()).unwrap();
        let (a, b) = (
            load(pa.to_str().unwrap()).unwrap(),
            load(pb.to_str().unwrap()).unwrap(),
        );
        assert_eq!(a["tpch"]["bhj_s"].len(), 3);
        let (text, regressions) = report(&a, &b);
        assert_eq!(regressions, 1, "{text}");
        assert!(text.contains("WORSE"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
