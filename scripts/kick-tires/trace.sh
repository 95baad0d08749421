#!/usr/bin/env bash
# A traced sweep end to end: the trace log, trace_query's span tree, the
# CLI's tree and Chrome export, and the flight recorder's dump.
source "$(dirname "$0")/lib.sh"
cd "$WORK"
SWEEP='{"type":"sweep","spec":{"pes":[144,288,576,1152],"freqs_mhz":[350,700]},"trace":{"id":4242}}'

$BIN serve --port 7991 --threads 4 --trace-log trace.jsonl > serve.log &
SERVE_PID=$!
wait_ready serve.log
# The sweep rides the client-chosen trace id, which the trace-log line
# echoes.
$BIN query --port 7991 "$SWEEP" | grep -q '"points":8'
grep '"type":"sweep"' trace.jsonl | grep -q '"trace":4242'
# trace_query returns the span tree: the root plus one span per phase,
# and worker-tagged batch spans.
$BIN query --port 7991 '{"type":"trace_query","id":4242}' \
  | tee trace.json | grep -q '"type":"trace","id":4242'
for phase in sweep parse queue_wait execute flush batch; do
  grep -q "\"name\":\"$phase\"" trace.json
done
grep -q '"worker":' trace.json
# The CLI renders the same tree and exports chrome format.
$BIN trace 4242 --port 7991 --chrome chrome.json | tee tree.txt \
  | grep -q 'trace 4242'
grep -q 'sweep' tree.txt
# The chrome export is valid JSON with one complete event per span,
# covering every request phase.
python3 - <<'PY'
import json
events = json.load(open("chrome.json"))["traceEvents"]
assert events, "no trace events"
assert all(e["ph"] == "X" for e in events)
names = {e["name"] for e in events}
for phase in ("sweep", "parse", "queue_wait", "execute", "flush", "batch"):
    assert phase in names, f"missing {phase} span: {sorted(names)}"
assert len({e["tid"] for e in events}) >= 2, "expected >= 2 thread lanes"
PY
# The flight recorder writes on demand and the file parses.
$BIN query --port 7991 dump | tee dump.json \
  | grep -q '"type":"dump"'
grep -q 'flight.json' dump.json
python3 - <<'PY'
import json
flight = json.load(open("trace.jsonl.flight.json"))
assert flight["spans"], "flight file has no spans"
assert any(s["trace"] == 4242 for s in flight["spans"])
assert flight["metrics"], "flight file has no metrics"
assert "dropped" in flight
PY
$BIN query --port 7991 shutdown | grep -q '"type":"shutdown"'
wait $SERVE_PID
