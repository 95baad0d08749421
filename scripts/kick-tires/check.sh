#!/usr/bin/env bash
# fmt, clippy, the workspace build and tests, the release tests, and a
# DSE smoke sweep.
source "$(dirname "$0")/lib.sh"

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test --workspace -q

# Release builds wrap on integer overflow and compile out
# debug_assert!, and the reader does its own index and depth
# arithmetic; the engine's slot-release test races a worker against
# its waiter. The model crates' integer arithmetic and evaluate's
# pinned outcomes run in release too. tests/observability.rs stays out:
# its release build races a sweep against a timing window.
cargo test --release -q -p chain-nn-serve
cargo test --release -q -p chain-nn-dse -p chain-nn-core -p chain-nn-mem -p chain-nn-energy --lib
cargo test --release -q --test protocol_fuzz --test eval_outcomes

cd "$WORK"
$BIN dse --pes 64..=1024 --threads 8 --out dse.csv
test "$(wc -l < dse.csv)" -ge 201
