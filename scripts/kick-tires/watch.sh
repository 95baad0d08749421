#!/usr/bin/env bash
# The temporal view of a live daemon: windowed metrics history, the raw
# watch stream, one frame of the top dashboard, and an SLO seen end to
# end.
source "$(dirname "$0")/lib.sh"
cd "$WORK"

$BIN serve --port 7989 --threads 4 --sample-interval-ms 50 \
  --slo eval:p99_us=60000000 --slow-log-us 30000000 > serve.log &
SERVE_PID=$!
wait_ready serve.log
$BIN query --port 7989 eval | grep -q '"ok":true'
# One windowed-history reply with the sampler's metadata.
$BIN query --port 7989 metrics-history | tee history.json \
  | grep -q '"interval_s":0.05'
grep -q '"windows":\[' history.json
# The raw watch stream: sample lines then the done line.
$BIN query --port 7989 '{"type":"watch","samples":2}' \
  | tee watch.jsonl
test "$(wc -l < watch.jsonl)" -eq 3
head -1 watch.jsonl | grep -q '"seq":'
tail -1 watch.jsonl | grep -q '"done":true'
# The live dashboard renders at least one frame. (Write the
# file first: grep -q's early exit would SIGPIPE a tee on
# multi-line frames under pipefail.)
$BIN top --port 7989 --frames 1 > top.out
grep -q 'chain-nn top' top.out
grep -q 'req/s' top.out
# The SLO is visible end to end: stats counts it and the sampler
# published its compliance gauges (a 60 s p99 target is never breached
# by one eval).
$BIN query --port 7989 stats | tee stats.json | grep -q '"slos":1'
grep -q '"slo_breach_ticks":0' stats.json
$BIN query --port 7989 metrics --text > metrics.txt
grep -q 'slo_compliant{slo="eval:p99_us=60000000"} 1' metrics.txt
grep -q 'slo_error_budget_remaining{slo="eval:p99_us=60000000"} 1' metrics.txt
$BIN query --port 7989 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID
