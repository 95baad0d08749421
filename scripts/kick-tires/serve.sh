#!/usr/bin/env bash
# The daemon end to end (eval, sweep, frontier, stats), then a restart
# on the same cache file.
source "$(dirname "$0")/lib.sh"
cd "$WORK"
SWEEP='{"type":"sweep","spec":{"pes":[144,288,576,1152],"freqs_mhz":[350,700]}}'

# First lifetime: eval + sweep + frontier + stats, then shutdown.
$BIN serve --port 7979 --threads 4 --cache-file dse.cache > serve1.log &
SERVE_PID=$!
wait_ready serve1.log
$BIN query --port 7979 eval | grep -q '"ok":true'
# The sweep shares the eval's point: 8 grid points, 1 already cached.
$BIN query --port 7979 "$SWEEP" | tee sweep1.json \
  | grep -q '"cache_misses":7'
grep -q '"cache_hits":1' sweep1.json
$BIN query --port 7979 frontier | grep -q '"entries":\['
$BIN query --port 7979 stats | grep -q '"persistent":true'
$BIN query --port 7979 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID
test -s dse.cache

# Second lifetime: the cache file round-trips — the same sweep is 100%
# cached, zero model evaluations.
$BIN serve --port 7979 --threads 4 --cache-file dse.cache > serve2.log &
SERVE_PID=$!
wait_ready serve2.log
grep -q "8 cached points loaded" serve2.log
$BIN query --port 7979 "$SWEEP" | tee sweep2.json \
  | grep -q '"cache_misses":0'
grep -q '"cache_hits":8' sweep2.json
$BIN query --port 7979 shutdown
wait $SERVE_PID
