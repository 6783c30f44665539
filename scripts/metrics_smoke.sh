#!/usr/bin/env bash
# metrics-smoke: end-to-end probe of the observability surface using the
# real binaries, not the test harness. It builds txserver and txmetrics,
# starts a traced server, drives committed load through the wire,
# fetches one METRICS(dump) payload, and asserts that within it the
# histogram counts reconcile exactly against the server's and the lock
# manager's counters, that the quantiles are monotone and positive, that
# the trace ring is populated and that a volatile server reports no
# replication block. It also sends the server SIGQUIT and checks the ring
# lands in the log, checks the -metrics-every ticker emitted a summary
# line, and then starts a durable server on the same address and checks it
# reports itself as a replication leader.
set -euo pipefail

cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$bin"
}
trap cleanup EXIT

echo "metrics-smoke: building txserver + txmetrics"
go build -o "$bin" ./cmd/txserver ./cmd/txmetrics

# wait_up ADDR LOG: poll until the server at ADDR answers METRICS.
wait_up() {
  for _ in $(seq 1 100); do
    if "$bin/txmetrics" -addr "$1" -timeout 1s >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "metrics-smoke: server at $1 never came up" >&2
  cat "$2" >&2
  exit 1
}

addr="127.0.0.1:${METRICS_SMOKE_PORT:-7689}"
"$bin/txserver" -addr "$addr" -trace 8192 -metrics-every 200ms \
  >"$bin/server.log" 2>&1 &
server_pid=$!
wait_up "$addr" "$bin/server.log"

echo "metrics-smoke: driving 200 transactions"
"$bin/txmetrics" -addr "$addr" -exercise 200 >/dev/null
"$bin/txmetrics" -addr "$addr" -json -dump >"$bin/metrics.json"

echo "metrics-smoke: reconciling within one METRICS payload"
python3 - "$bin/metrics.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    m = json.load(f)

def check(cond, msg):
    if not cond:
        sys.exit("metrics-smoke: FAIL: " + msg + "\n" + json.dumps(m, indent=2))

victims = m["victims_deadlock"] + m["victims_cancelled"]
check(m["tx_commits"] >= 200, "expected >= 200 commits, got %d" % m["tx_commits"])
check(m["tx_commits"] == m["commits"] and m["tx_aborts"] == m["aborts"],
      "registry outcomes disagree with the server counters")
check(m["tx_latency"]["count"] == m["commits"] + m["aborts"],
      "tx_latency count %d != commits %d + aborts %d"
      % (m["tx_latency"]["count"], m["commits"], m["aborts"]))
check(m["op_latency"]["count"] == m["lock_acquires"] + victims,
      "op_latency count %d != acquires %d + victims %d"
      % (m["op_latency"]["count"], m["lock_acquires"], victims))
check(m["lock_wait"]["count"] == m["lock_waits"] + victims,
      "lock_wait count %d != waits %d + victims %d"
      % (m["lock_wait"]["count"], m["lock_waits"], victims))
check(m["victims"] == victims, "victim breakdown does not sum")
for name in ("op_latency", "tx_latency"):
    h = m[name]
    if h["count"] == 0:
        continue
    check(0 < h["p50_ns"] <= h["p90_ns"] <= h["p99_ns"] <= h["max_ns"],
          name + " quantiles not monotone positive")
check(m["queued_waiters"] == 0 and m["contended_objects"] == 0,
      "gauges nonzero at quiescence")
trace = m.get("trace") or []
check(len(trace) > 0, "dump returned no trace entries")
kinds = {e["kind"] for e in trace}
check(kinds <= {"CREATE", "REQUEST_COMMIT", "COMMIT", "ABORT",
                "LOCK_WAIT", "LOCK_ACQUIRE"},
      "unexpected trace kinds: %s" % kinds)
check("repl_status" not in m, "a volatile server reports a replication block")
print("metrics-smoke: reconciled: commits=%d tx_latency n=%d trace entries=%d"
      % (m["tx_commits"], m["tx_latency"]["count"], len(trace)))
EOF

echo "metrics-smoke: SIGQUIT trace dump"
kill -QUIT "$server_pid"
sleep 0.5
grep -q "txserver: trace: .* retained" "$bin/server.log" || {
  echo "metrics-smoke: FAIL: SIGQUIT did not dump the trace ring" >&2
  cat "$bin/server.log" >&2
  exit 1
}
grep -q "txserver: metrics: tx p50=" "$bin/server.log" || {
  echo "metrics-smoke: FAIL: -metrics-every never logged a summary" >&2
  cat "$bin/server.log" >&2
  exit 1
}

kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "metrics-smoke: durable leader's replication block"
"$bin/txserver" -addr "$addr" -data-dir "$bin/wal" >"$bin/durable.log" 2>&1 &
server_pid=$!
wait_up "$addr" "$bin/durable.log"
"$bin/txmetrics" -addr "$addr" -json >"$bin/durable.json"
python3 - "$bin/durable.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    m = json.load(f)
role = (m.get("repl_status") or {}).get("role")
if role != "leader":
    sys.exit("metrics-smoke: FAIL: durable server's repl_status.role is %r, want 'leader'\n%s"
             % (role, json.dumps(m, indent=2)))
print("metrics-smoke: durable server reports repl_status.role=leader")
EOF

kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "metrics-smoke: ok"
