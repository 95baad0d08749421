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

# A cache file in the retired v1 format is someone else's file: serve
# refuses it before binding and leaves its bytes as they were. (The
# timeout only bounds a daemon that would wrongly start serving.)
printf 'chain-nn dse cache v1\n\001\002\003\004' > v1.cache
cp v1.cache v1.orig
if timeout 20 $BIN serve --port 7979 --cache-file v1.cache > v1.log 2>&1; then
  echo "serve accepted a v1 cache file"; exit 1
fi
grep -q "is not a chain-nn dse cache file" v1.log
cmp v1.cache v1.orig

# A bounded daemon under a file-size limit below the bytes its sweeps
# write: 20 cold 1,000-point sweeps write ~2.9 MB of records, and
# --cache-cap 2000 keeps the cache file under 2 × 2,000 records plus one
# sweep (~0.7 MB), so every sweep answers inside a 1 MiB limit. Only the
# daemon runs under the limit.
bounded_serve() {
  ( ulimit -f 1024; exec $BIN serve --port 7979 --threads 2 --cache-cap 2000 \
      --cache-file bounded.cache ) > "$1" 2>&1 &
  SERVE_PID=$!
  wait_ready "$1"
}
bounded_serve bounded1.log
for n in $(seq 0 19); do
  pes=$(seq -s, $((1000 + 500 * n)) $((1499 + 500 * n)))
  $BIN query --port 7979 \
    "{\"type\":\"sweep\",\"spec\":{\"pes\":[$pes],\"freqs_mhz\":[350,700],\"nets\":\"lenet\"}}" \
    | grep -q '"cache_misses":1000'
done
$BIN query --port 7979 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID

# The restart reads the bounded file: at least the newest 2,000 points,
# at most 2 × 2,000 plus one sweep.
bounded_serve bounded2.log
loaded=$(grep -o '[0-9]* cached points loaded' bounded2.log | cut -d' ' -f1)
test "$loaded" -ge 2000
test "$loaded" -le 5000
$BIN query --port 7979 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID
