#!/usr/bin/env sh
# Focused smoke of the observability layer (`make slo-smoke`): start one
# chaos-configured minupd (20ms solve budget, every solver step delayed 30ms
# by fault injection, anomaly dumps under artifacts/anomalies), drive
# forced-degraded traffic — each request solves a fresh un-waited copy of
# the Figure 2(a) policy, whose version no refresh has warmed yet — then
# assert the whole flight-recorder/SLO chain end to end:
#
#   1. every request shows up in /debug/requests (JSON and HTML views);
#   2. the degraded requests are in the anomaly ring with dump file names;
#   3. the dumps exist on disk and are Perfetto-loadable trace JSON, and a
#      traced read's dump renders its one solver-event log into both the
#      span lane (tid 2) and the event lane (tid 3);
#   4. the route's availability burn-rate gauges moved in the Prometheus
#      exposition, alongside the runtime gauges /metrics samples;
#   5. a SIGTERM drain writes the final-state dump.
#
# The dump directory is left in place (artifacts/ is gitignored) so CI can
# upload the anomaly dumps as a build artifact. Needs curl and jq.
#
# Usage: scripts/slo_smoke.sh [addr] [debug-addr]
#        (defaults 127.0.0.1:18090 and 127.0.0.1:16070)
set -eu

addr="${1:-127.0.0.1:18090}"
dbg="${2:-127.0.0.1:16070}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
dump_dir="artifacts/anomalies"
rm -rf "$dump_dir"
mkdir -p "$dump_dir"

go build -o /tmp/minupd ./cmd/minupd

/tmp/minupd \
  -addr "$addr" -debug-addr "$dbg" \
  -solve-timeout 20ms \
  -fault 'solve.step:delay:%1:30ms' \
  -flight-dump-dir "$dump_dir" -flight-dump-cap 1048576 \
  -slo 'policy.solve:p99=10ms,avail=99.9' &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT INT TERM

i=0
until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "slo-smoke: minupd did not become healthy at $addr" >&2
    exit 1
  fi
  sleep 0.1
done

fetch() {
  code="$(curl -sS -o "$2" -w '%{http_code}' "$1")"
  if [ "$code" != "200" ]; then
    echo "slo-smoke: GET $1 returned $code" >&2
    cat "$2" >&2 || true
    exit 1
  fi
}

# Every cold solve blows the 20ms budget through the 30ms step delay, while
# the policy's own refresh needs a few hundred ms: each read of a fresh
# policy degrades to the baseline. Five requests, five availability-budget
# burns, and a sixth read with ?trace=1.
fig2_body="$(jq -n --rawfile l testdata/lattice_fig1b.txt \
  --rawfile c testdata/constraints_fig2.txt '{lattice:$l,constraints:$c}')"
put_fig2() {
  code="$(curl -sS -o /tmp/slo-smoke-put.json -w '%{http_code}' -X PUT \
    -d "$fig2_body" "http://$addr/policies/$1")"
  if [ "$code" != "201" ]; then
    echo "slo-smoke: PUT /policies/$1 returned $code" >&2
    cat /tmp/slo-smoke-put.json >&2 || true
    exit 1
  fi
}
n=0
while [ "$n" -lt 5 ]; do
  put_fig2 "fig2-$n"
  fetch "http://$addr/policies/fig2-$n/solve" /tmp/slo-smoke-solve.json
  grep -q '"degraded": true' /tmp/slo-smoke-solve.json
  n=$((n + 1))
done
put_fig2 fig2-traced
fetch "http://$addr/policies/fig2-traced/solve?trace=1" /tmp/slo-smoke-traced.json
grep -q '"degraded": true' /tmp/slo-smoke-traced.json
trace_id="$(jq -r '.trace_id' /tmp/slo-smoke-traced.json)"
echo "slo-smoke: 6 forced-degraded solves served (trace $trace_id)"

# (1)+(2) The live view lists them, and they are anomalies with dumps.
fetch "http://$dbg/debug/requests?format=json" /tmp/slo-smoke-flight.json
grep -q '"route": "policy.solve"' /tmp/slo-smoke-flight.json
grep -q '"degrade_reason": "deadline"' /tmp/slo-smoke-flight.json
grep -q '"dump": "anomaly-' /tmp/slo-smoke-flight.json
fetch "http://$dbg/debug/requests" /tmp/slo-smoke-flight.html
grep -q 'Recent anomalies' /tmp/slo-smoke-flight.html
echo "slo-smoke: /debug/requests lists the degraded anomalies"

# (3) The dumps are on disk and Perfetto-loadable.
count="$(ls "$dump_dir" | grep -c '^anomaly-' || true)"
if [ "$count" -lt 5 ]; then
  echo "slo-smoke: expected >=5 anomaly dumps, found $count" >&2
  ls -l "$dump_dir" >&2 || true
  exit 1
fi
for f in "$dump_dir"/anomaly-*.json; do
  grep -q '"traceEvents"' "$f"
done
echo "slo-smoke: $count Perfetto-loadable anomaly dumps in $dump_dir"
# The traced read's span tree and its event lane come from one event log.
traced_dump="$(jq -r --arg id "$trace_id" \
  '[.recent[] | select(.trace_id == $id)][0].dump // empty' /tmp/slo-smoke-flight.json)"
if [ -z "$traced_dump" ]; then
  echo "slo-smoke: no anomaly dump for the traced read (trace $trace_id)" >&2
  exit 1
fi
if ! jq -e '[.traceEvents[] | select(.tid == 2 and .name == "solve")] | length >= 1' \
    "$dump_dir/$traced_dump" >/dev/null; then
  echo "slo-smoke: $traced_dump has no solve span on tid 2" >&2
  exit 1
fi
if ! jq -e '[.traceEvents[] | select(.tid == 3)] | length >= 1' "$dump_dir/$traced_dump" >/dev/null; then
  echo "slo-smoke: $traced_dump has no solver events on tid 3" >&2
  exit 1
fi
echo "slo-smoke: traced dump $traced_dump has the solve span and its solver events"

# (4) The burn gauges moved: 100% degraded traffic against a 99.9% target
# is a 1000x burn (1000000 milli); accept anything clearly non-zero.
fetch "http://$addr/metrics?format=prometheus" /tmp/slo-smoke-metrics.txt
burn="$(awk '/^slo_policy_solve_avail_burn_5m_milli /{print $2}' /tmp/slo-smoke-metrics.txt)"
if [ -z "$burn" ] || [ "$burn" -le 1000 ]; then
  echo "slo-smoke: availability burn gauge did not move (got '${burn:-absent}')" >&2
  exit 1
fi
lat="$(awk '/^slo_policy_solve_latency_burn_5m_milli /{print $2}' /tmp/slo-smoke-metrics.txt)"
if [ -z "$lat" ] || [ "$lat" -le 0 ]; then
  echo "slo-smoke: latency burn gauge did not move (got '${lat:-absent}')" >&2
  exit 1
fi
grep -q '^runtime_goroutines ' /tmp/slo-smoke-metrics.txt
grep -q '^runtime_heap_alloc_bytes ' /tmp/slo-smoke-metrics.txt
echo "slo-smoke: burn gauges moved (avail=$burn milli, latency=$lat milli)"

# (5) A graceful drain writes the final-state snapshot dump.
kill -TERM "$pid"
wait "$pid" || true
if ! ls "$dump_dir"/final-shutdown-*.json >/dev/null 2>&1; then
  echo "slo-smoke: no final-state dump after SIGTERM" >&2
  ls -l "$dump_dir" >&2 || true
  exit 1
fi
echo "slo-smoke: drain wrote the final-state dump"

echo "slo-smoke: all checks passed"
