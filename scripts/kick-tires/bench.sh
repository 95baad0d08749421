#!/usr/bin/env bash
# perfbench's own tests, then a 5 s correctness run of each workload.
# perfbench checks every reply end to end: batch-warm outcomes bit-equal
# to the persisted ones, sweep-cold frontier indices, and every
# tune-cluster best (the only workload through the coordinator) equal
# to an in-process tune. A run exits non-zero unless it prints
# "correct": true.
source "$(dirname "$0")/lib.sh"

CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml
for w in sweep-cold batch-warm tune-cluster; do
  python3 perfbench/run.py --workload "$w" --seed 7919 --seconds 5 --trace 0
done
