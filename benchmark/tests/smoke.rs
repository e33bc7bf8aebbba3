//! Tiny-scale end-to-end runs of every workload, the agreement between
//! `BENCHMARK.json` and what the harness prints, and `expected.json`.

use joinstudy_benchmark::json::{self, Json};
use joinstudy_benchmark::manifest::manifest;
use joinstudy_benchmark::run::{pinned_mismatches, run, RunConfig, PINNED_SEED};
use joinstudy_benchmark::span::{self, Span};
use joinstudy_benchmark::workload;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The tests here run engines that share process-wide state (the metrics
/// registry, the spill directory variable) and must not overlap.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test")
}

fn config(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 7,
        // One round, whatever the workload's standard count.
        seconds: 0.2,
        trace,
        scale: 0.004,
        out_dir: out_dir(),
    }
}

#[test]
fn every_workload_runs_correctly_and_prints_the_manifest_names() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let names = |metrics: &[joinstudy_benchmark::manifest::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    for name in &manifest().workloads {
        let outcome = run(&config(name, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.warnings);
        assert!(outcome.attempted >= 1 && outcome.rounds == 1, "{name}");
        let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            printed,
            names(&manifest().end_to_end),
            "{name}: end-to-end names"
        );
        for (metric, value) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: {metric} = {value} (end-to-end metrics are never 0)"
            );
        }
        let line = json::parse(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = line.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));

        let outcome = run(&config(name, true)).unwrap_or_else(|e| panic!("{name} traced: {e}"));
        assert_eq!(outcome.failed, 0, "{name} traced: {:?}", outcome.warnings);
        let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            printed,
            names(&manifest().per_layer),
            "{name}: per-layer names"
        );
        for (metric, value) in &outcome.metrics {
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }

        // The span file: a tree, children inside parents, self time >= 0
        // and never more than the span's own duration.
        let path = out_dir().join(format!("{name}.trace.json"));
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let num = |s: &Json, key: &str| s.get(key).and_then(Json::as_f64).unwrap() as u64;
        let records = doc.get("spans").unwrap().as_array();
        let spans: Vec<Span> = records
            .iter()
            .map(|s| Span {
                name: s.get("name").and_then(Json::as_str).unwrap().to_string(),
                start_ns: num(s, "start_ns"),
                end_ns: num(s, "end_ns"),
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                op_id: num(s, "op_id"),
            })
            .collect();
        assert!(spans.len() > 20, "{name}: only {} spans", spans.len());
        span::validate(&spans).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ((own, s), record) in span::self_times(&spans).iter().zip(&spans).zip(records) {
            assert!(*own <= s.end_ns - s.start_ns, "{name}: {}", s.name);
            assert_eq!(*own, num(record, "self_ns"), "{name}: {}", s.name);
        }
        // Spans of one operation share its id with their parent, up to the
        // pass span that groups operations.
        for s in &spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.op_id == s.op_id
                        || parent.name.starts_with("pass.")
                        || parent.name == "kernels",
                    "{name}: {} under {}",
                    s.name,
                    parent.name
                );
            }
        }
    }
    std::fs::remove_dir_all(out_dir()).ok();
}

/// `expected.json` against the generators, on the workloads whose inputs a
/// product crate generates (TPC-H data, the stream): a change to
/// `tpch::generate` or `StreamGen` output fails here, whatever seeds the
/// benchmark is later run with. The `micro_*` inputs are this package's
/// own; a run with `--seed 42` checks them too.
#[test]
fn generator_output_matches_expected_json() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["tpch", "spill_stream", "serve_mix"] {
        let mut wl = workload::setup(name, PINNED_SEED, 1.0, 2).unwrap();
        let mismatches = pinned_mismatches(name, wl.as_mut());
        assert!(mismatches.is_empty(), "{name}: {mismatches:#?}");
    }
}
