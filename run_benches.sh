#!/bin/bash
# Regenerate every figure/table of the paper at container-appropriate scale:
# one `repro all`, which creates results/logs/, writes <row>.txt there and
# exits non-zero if any row failed. It includes `calibrate`, whose
# out-of-cache solves (a 64 MiB-clamped LLC, 6x that in hash table) took
# 48 s at --reps 1 and peaked near 6 GiB of memory on 2 vCPUs; the fit goes
# to results/calibration_fit.json, never results/calibration.json.
set -ex
cargo run --release -q -p joinstudy-bench --bin repro -- all --reps 2 --sfs 0.05,0.1
