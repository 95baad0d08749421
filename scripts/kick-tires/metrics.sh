#!/usr/bin/env bash
# Traffic against a daemon, then a metrics snapshot, its text rendering,
# stats and the trace log must all count exactly that traffic.
source "$(dirname "$0")/lib.sh"
cd "$WORK"
SWEEP='{"type":"sweep","spec":{"pes":[144,288,576,1152],"freqs_mhz":[350,700]}}'

$BIN serve --port 7987 --threads 4 --trace-log trace.jsonl > serve.log &
SERVE_PID=$!
wait_ready serve.log
$BIN query --port 7987 eval | grep -q '"ok":true'
$BIN query --port 7987 eval | grep -q '"ok":true'
$BIN query --port 7987 "$SWEEP" | grep -q '"points":8'
# The JSON snapshot counts exactly the traffic above, with populated
# latency histograms. The scheduler saw 9 points: 1 for the cold eval
# plus 8 for the sweep. The warm repeat eval is answered inline from
# the cache and never enters the scheduler.
$BIN query --port 7987 metrics | tee metrics.json \
  | grep -q '"name":"serve_requests_total","labels":{"type":"eval"},"kind":"counter","value":2'
grep -q '"name":"serve_requests_total","labels":{"type":"sweep"},"kind":"counter","value":1' metrics.json
grep -q '"name":"serve_request_ns","labels":{"type":"eval"},"kind":"histogram","count":2' metrics.json
grep -q '"name":"sched_points_total","kind":"counter","value":9' metrics.json
grep -q '"name":"serve_queue_wait_ns"' metrics.json
# The Prometheus-style rendering parses: TYPE headers, quantile
# samples, and a nonzero request count.
$BIN query --port 7987 metrics --text | tee metrics.txt \
  | grep -q '# TYPE serve_request_ns summary'
grep -q 'serve_request_ns{type="eval",quantile="0.99"}' metrics.txt
grep -q 'serve_requests_total{type="eval"} 2' metrics.txt
grep -q '# TYPE serve_uptime_seconds gauge' metrics.txt
# Stats backfills uptime and in-flight jobs from the registry.
$BIN query --port 7987 stats | tee stats.json | grep -q '"uptime_s":'
grep -q '"inflight_requests":1' stats.json
$BIN query --port 7987 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID
# The trace log carries one line per request with the queue-wait /
# execute separation.
test "$(wc -l < trace.jsonl)" -eq 7
head -1 trace.jsonl | grep -q '"type":"eval"'
grep '"type":"sweep"' trace.jsonl | grep -q '"queue_wait_us":'
grep '"type":"sweep"' trace.jsonl | grep -q '"execute_us":'
