#!/usr/bin/env bash
# Record one result set: every workload once per seed, untraced, as the
# driver runs it. Compare two sets with `joinstudy-benchmark compare`.
#
#   benchmark/run_set.sh <set name> [first seed] [seeds] [trace]
#
# Run from the root of a checkout. Lines are appended to
# benchmark/out/<set name>.jsonl; a set of ten seeds takes about 17 min.
# The first seed is the one expected.json pins, so every set also checks
# the generators' output against it.
set -euo pipefail
name=${1:?usage: benchmark/run_set.sh <set name> [first seed] [seeds] [trace]}
first=${2:-42}
seeds=${3:-10}
trace=${4:-0}
mkdir -p benchmark/out
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
for workload in tpch micro_fk micro_lowsel_wide micro_zipf spill_stream serve_mix; do
  for ((seed = first; seed < first + seeds; seed++)); do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
      --record "benchmark/out/$name.jsonl" | tail -n 1 | cut -c1-120
  done
done
