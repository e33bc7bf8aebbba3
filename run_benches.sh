#!/bin/bash
# Regenerate every figure/table of the paper at container-appropriate scale:
# one `repro all`, which creates results/logs/, writes <row>.txt there and
# exits non-zero if any row failed.
set -ex
cargo run --release -q -p joinstudy-bench --bin repro -- all --reps 2 --sfs 0.05,0.1
