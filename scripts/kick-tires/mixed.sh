#!/usr/bin/env bash
# The mixed-traffic suite in release: adaptive claims keep an eval's p99
# at most half the fixed-batch p99 during a sweep, and every point is
# counted exactly once.
source "$(dirname "$0")/lib.sh"

cargo test --release --test mixed_traffic -- --nocapture
