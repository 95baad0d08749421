#!/usr/bin/env bash
# A frontier tune (a sweep of the budget axis) on a daemon, streamed,
# then a restart that must re-sweep from the cache file alone.
source "$(dirname "$0")/lib.sh"
cd "$WORK"

# First lifetime: the frontier tune streams its steps and every fresh
# evaluation lands in the cache file.
$BIN serve --port 7985 --threads 4 --cache-file frontier.cache > serve1.log &
SERVE_PID=$!
wait_ready serve1.log
$BIN tune --port 7985 --sweep-budget max-mw=300..=900:50 --seed 7 \
  | tee sweep1.txt | grep -q 'tuned frontier:'
grep -q '(0 hits' sweep1.txt
grep -q '% reused via warm start' sweep1.txt
# The raw protocol streams: step lines before the done line.
$BIN query --port 7985 \
  '{"type":"tune_frontier","sweep":{"axis":"max_system_mw","values":[500,600]}}' \
  | tee stream.jsonl
test "$(wc -l < stream.jsonl)" -eq 3
head -1 stream.jsonl | grep -q '"step":0'
tail -1 stream.jsonl | grep -q '"done":true'
$BIN query --port 7985 shutdown
wait $SERVE_PID
test -s frontier.cache

# Second lifetime: the identical sweep must be answered without a
# single model evaluation and report the identical frontier.
$BIN serve --port 7985 --threads 4 --cache-file frontier.cache > serve2.log &
SERVE_PID=$!
wait_ready serve2.log
$BIN tune --port 7985 --sweep-budget max-mw=300..=900:50 --seed 7 \
  | tee sweep2.txt | grep -q ' 0 misses)'
diff <(grep 'pes=' sweep1.txt) <(grep 'pes=' sweep2.txt)
$BIN query --port 7985 shutdown
wait $SERVE_PID
