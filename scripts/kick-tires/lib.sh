# What every kick-tires area shares. Sourced by scripts/kick-tires/*.sh,
# never run on its own.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
ROOT=$PWD

# The CLI, built from this checkout. `cargo build --release` at the root
# builds only the umbrella crate, so target/release/chain-nn could
# otherwise be stale.
cargo build --release -q -p chain-nn-cli
BIN=$ROOT/target/release/chain-nn

# Scratch space for the area's caches, logs and outputs, so none lands
# in the checkout. An area runs `cd "$WORK"` once its cargo steps are
# done.
WORK=$(mktemp -d)

# On any exit, stop every daemon the area left running: a failed
# assertion would otherwise leave it holding its port for the next run.
# The scratch directory is kept when the area failed, for its logs.
finish() {
  local status=$? pids
  pids=$(jobs -p)
  if [ -n "$pids" ]; then
    kill $pids 2>/dev/null || true
    wait $pids 2>/dev/null || true
  fi
  if [ "$status" -eq 0 ]; then
    rm -rf "$WORK"
  else
    echo "kick-tires: failed; logs kept in $WORK" >&2
  fi
}
trap finish EXIT

# wait_ready LOG: waits for a daemon (or coordinator) to print its
# listening line to LOG.
wait_ready() {
  for _ in $(seq 1 200); do
    grep -q "listening" "$1" && return 0
    sleep 0.1
  done
  echo "daemon never became ready"; cat "$1"; return 1
}
