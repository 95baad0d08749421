#!/usr/bin/env bash
# A tune against a live daemon, then a restart that must re-tune from
# the cache file alone.
source "$(dirname "$0")/lib.sh"
cd "$WORK"

# First lifetime: the tune runs on the daemon and every fresh
# evaluation lands in the cache file.
$BIN serve --port 7981 --threads 4 --cache-file tuner.cache > serve1.log &
SERVE_PID=$!
wait_ready serve1.log
$BIN tune --port 7981 --max-mw 500 --seed 7 | tee tune1.txt \
  | grep -q 'within budget'
grep -q '(0 hits' tune1.txt
$BIN query --port 7981 shutdown
wait $SERVE_PID
test -s tuner.cache

# The snapshot is already duplicate-free.
$BIN compact --cache-file tuner.cache | grep -q 'dropped 0 duplicates'

# Second lifetime: the identical tune must be answered without a single
# model evaluation (cache_misses == 0) and pick the identical point.
$BIN serve --port 7981 --threads 4 --cache-file tuner.cache > serve2.log &
SERVE_PID=$!
wait_ready serve2.log
$BIN tune --port 7981 --max-mw 500 --seed 7 | tee tune2.txt \
  | grep -q ' 0 misses)'
grep -q 'within budget' tune2.txt
diff <(grep 'chosen:' tune1.txt) <(grep 'chosen:' tune2.txt)
$BIN query --port 7981 shutdown
wait $SERVE_PID
