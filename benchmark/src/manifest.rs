//! `BENCHMARK.json` as the harness reads it.
//!
//! The file at the repository root is the only statement of the contract
//! (workloads, metric names, units, directions, bounds, run length). It is
//! compiled in, so the names the runner prints, the units on its lines and
//! the bounds `compare` judges by cannot drift from it.

use crate::json::{self, Json};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Manifest {
    /// Seconds one standard run measures for (`--seconds`).
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    pub fn unit_of(&self, name: &str) -> Option<&str> {
        self.metrics()
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

fn parse(text: &str) -> Result<Manifest, String> {
    let file = json::parse(text)?;
    let text_of = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("no string {key:?} in {}", v.render()))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        file.get(key)
            .map_or(&[][..], Json::as_array)
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    better: match text_of(m, "better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("better: {other:?}")),
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        run_seconds: file
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds")?,
        workloads: file
            .get("workloads")
            .map_or(&[][..], Json::as_array)
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is compiled in and valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a manifest outside of.
    #[test]
    fn benchmark_json_is_within_the_contract() {
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
        let file = json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = file.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = file.get("command").unwrap().as_array();
        assert!((1..=32).contains(&command.len()));
        assert!(command
            .iter()
            .all(|a| a.as_str().is_some_and(|a| a.len() <= 200)));

        let name_ok = |n: &str| {
            (1..=64).contains(&n.len())
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let m = manifest();
        let mut names = std::collections::BTreeSet::new();
        assert!((2..=8).contains(&m.workloads.len()));
        for w in file.get("workloads").unwrap().as_array() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(name_ok(name) && names.insert(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!((1..=16).contains(&m.end_to_end.len()) && (1..=128).contains(&m.per_layer.len()));
        for metric in m.metrics() {
            assert!(
                name_ok(&metric.name) && names.insert(&metric.name),
                "metric name {}",
                metric.name
            );
            assert!(unit_ok(&metric.unit), "unit of {}", metric.name);
        }
        let setup = m.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        for metric in &m.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", metric.name);
            assert!(bound <= setup.bound.unwrap(), "setup_s has the largest");
        }
        assert!(m.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(m.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&m.run_seconds));
    }
}
