#!/usr/bin/env bash
# The cluster conformance and fault suites, a shard fleet that degrades
# on a kill and heals on a restart, the local fleet launcher, and the
# pipelining gate.
source "$(dirname "$0")/lib.sh"

cargo test --release --test cluster
cargo test --release --test fault_injection

cd "$WORK"
SWEEP='{"type":"sweep","spec":{"pes":[144,288,576,1152],"freqs_mhz":[350,700]}}'

# Three shards (own cache files) behind one coordinator.
for i in 1 2 3; do
  $BIN serve --port 810$i --threads 1 --cache-file shard$i.cache > shard$i.log &
  eval "SHARD${i}_PID=\$!"
  wait_ready shard$i.log
done
$BIN serve --coordinator --port 8100 \
  --shards 127.0.0.1:8101,127.0.0.1:8102,127.0.0.1:8103 > coord.log &
COORD_PID=$!
wait_ready coord.log
grep -q "3 shards" coord.log

# Cold sweep through the coordinator: every point evaluated once,
# nowhere twice, nothing degraded. (`set -e` ignores a command negated
# with `!`, so the negated checks exit by hand.)
$BIN query --port 8100 "$SWEEP" | tee sweep1.json \
  | grep -q '"cache_misses":8'
! grep -q '"degraded"' sweep1.json || exit 1
$BIN query --port 8100 stats | grep -q '"shards":\['
$BIN query --port 8100 metrics > coord-metrics.json
grep -q 'cluster_shard_requests_total' coord-metrics.json
grep -q 'serve_request_ns' coord-metrics.json
# The coordinator's own sampler answers, as a daemon's does.
$BIN query --port 8100 metrics-history | grep -q '"ok":true'

# Kill shard 3; the merged reply must degrade, not hang.
$BIN query --port 8103 shutdown | grep -q '"type":"shutdown"'
wait $SHARD3_PID
$BIN query --port 8100 "$SWEEP" | grep -q '"degraded":true'

# Restart shard 3 on its cache file: the fleet heals and the re-sweep
# is 100% cached — zero model evaluations.
$BIN serve --port 8103 --threads 1 --cache-file shard3.cache > shard3b.log &
SHARD3_PID=$!
wait_ready shard3b.log
$BIN query --port 8100 "$SWEEP" | tee resweep.json \
  | grep -q '"cache_misses":0'
grep -q '"cache_hits":8' resweep.json
! grep -q '"degraded"' resweep.json || exit 1

# Coordinator shutdown forwards to every shard.
$BIN query --port 8100 shutdown | grep -q '"type":"shutdown"'
wait $COORD_PID $SHARD1_PID $SHARD2_PID $SHARD3_PID

# The local fleet launcher: two in-process shards and a coordinator.
$BIN cluster --shards 2 --port 8200 > cluster.log &
CLUSTER_PID=$!
wait_ready cluster.log
$BIN query --port 8200 eval | grep -q '"ok":true'
$BIN query --port 8200 shutdown | grep -q '"type":"shutdown"'
wait $CLUSTER_PID

# The timing gate goes last, so every other check has run when it
# fails. The ignored test alternates lockstep and pipelined rounds of
# 400 cache-hit evals against one daemon for 3 s and asserts the median
# speedup floor (5x with >= 2 cores; the protocol work itself cannot
# overlap on a single core).
cd "$ROOT"
cargo test --release --test cluster -- --ignored --nocapture
