//! Benchmark harness for the join study.
//!
//! Every table and figure of the paper is a row of [`figures::FIGURES`],
//! run by the one `repro` binary (`cargo run -p joinstudy-bench --release
//! --bin repro -- list`, `-- fig14 --build 65536`, `-- all`); the other
//! binaries in `src/bin/` are tools (SQL shell and server, regression gate,
//! streaming smoke test). This library holds the shared machinery:
//!
//! * [`figures`] — the sweep table: one row function per figure over the
//!   shared Workload-A point functions and TPC-H query loops, each declaring
//!   the flags it takes,
//! * [`report`] — the figure layer's one output surface: tables declared
//!   once as typed columns, so one `row` call emits the aligned stdout line
//!   and the CSV line,
//! * [`harness`] — flag parsing (unknown flags are errors), repeated timing
//!   with median reporting, throughput formatting,
//! * [`hw`] — host hardware detection and a memory-bandwidth probe
//!   (Table 2),
//! * [`workloads`] — SQL-level microbenchmark relations modeled on
//!   Balkesen et al.'s Workloads A/B with the paper's selectivity, payload,
//!   skew and pipeline-depth variations (§5.4),
//! * [`regress`] — the `bench_check` regression gate: one run format for
//!   the current run and `results/baseline.json`, compared exactly,
//! * [`top`] — the live-server dashboard (`joinstudy_top`, shell `.top`):
//!   jsys query helpers and frame rendering.
//!
//! Defaults are sized for a small container; `--build`/`--sf`/`--threads`/
//! `--reps` scale every experiment up to real hardware.

pub mod figures;
pub mod harness;
pub mod hw;
pub mod regress;
pub mod report;
pub mod top;
pub mod workloads;
