#!/usr/bin/env sh
# Smoke-test the minupd HTTP service end to end against the checked-in
# Figure 2(a) fixtures: build, start, poll /healthz, store the fixtures as
# policy fig2 (PUT /policies/fig2 with ?wait=1), then assert that /readyz,
# /policies/fig2/solve?trace=1, /metrics?format=prometheus, and
# /policies/fig2/trace?format=chrome all answer 200 with non-empty bodies.
# The Chrome trace is left at artifacts/sample-trace.json (gitignored) for
# CI to upload as an artifact. A second, deliberately throttled instance
# (-max-inflight 1, no queue, 20ms solve budget, every solver step delayed
# 30ms by fault injection) then exercises the robustness layer: a
# forced-degraded solve and load shedding under concurrent requests, with
# the http_shed and solve_degraded counters asserted via Prometheus
# exposition. Each of those requests reads a fresh un-waited policy, whose
# version no refresh has warmed yet, so it runs the guarded cold solve. A
# third instance runs the durable sharded policy catalog: create a policy
# with a waited mutation, append a constraint with ?wait=1 (answered warm
# at version 2; neither ack echoes the source texts, which GET still
# serves), solve twice (both reads are hits of version 2, so their bodies
# are the version's one encoding and must be identical), check
# the /policies index, per-shard and refresh metrics, SIGTERM,
# restart on the same -data-dir WITHOUT -shards (the directory's pinned
# count must win), and assert the policy survived.
#
# Before any instance starts, cmd/minfront makes a round trip for each
# problem family: -gen writes a seeded instance to a file, and -in FILE
# -emit -check compiles it, prints its policy texts, parses them into the
# set minupd would serve, solves it, and checks the answer with the engine
# verifier, the minimality probe and the family's source oracle.
#
# The first two instances also expose the loopback debug listener so the
# flight recorder's /debug/requests view and the SLO burn-rate gauges can be
# asserted: issued solves must appear in the JSON view, the chaos instance's
# forced-degraded request must land in the anomaly ring with an on-disk
# Perfetto dump, and its availability burn gauge must move.
#
# Needs curl and jq (which builds the policy body from the fixture files).
#
# Usage: scripts/smoke_minupd.sh [addr] [addr2] [addr3]
#        (defaults 127.0.0.1:18080 .. 127.0.0.1:18082; debug listeners on
#         127.0.0.1:16060 and 127.0.0.1:16061)
set -eu

addr="${1:-127.0.0.1:18080}"
addr2="${2:-127.0.0.1:18081}"
addr3="${3:-127.0.0.1:18082}"
dbg1="${SMOKE_DEBUG_ADDR1:-127.0.0.1:16060}"
dbg2="${SMOKE_DEBUG_ADDR2:-127.0.0.1:16061}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
mkdir -p artifacts

go build -o /tmp/minupd ./cmd/minupd
go build -o /tmp/minfront ./cmd/minfront

for family in suppress depinf; do
  /tmp/minfront -family "$family" -gen -seed 3 -size 4 > "/tmp/smoke-$family.json"
  if ! /tmp/minfront -family "$family" -in "/tmp/smoke-$family.json" -emit -check \
      > "/tmp/smoke-$family.out" 2>&1; then
    echo "smoke: minfront -family $family -in FILE -emit -check failed" >&2
    cat "/tmp/smoke-$family.out" >&2
    exit 1
  fi
  grep -q '^attrs ' "/tmp/smoke-$family.out"
  echo "smoke: minfront $family round trip ok"
done

# The Figure 2(a) policy: the two fixture files as one PUT body.
fig2_body="$(jq -n --rawfile l testdata/lattice_fig1b.txt \
  --rawfile c testdata/constraints_fig2.txt '{lattice:$l,constraints:$c}')"

put_fig2() {
  # put_fig2 <addr> <name-and-query>: store the Figure 2(a) policy; assert 201.
  code="$(curl -sS -o /tmp/smoke-put.json -w '%{http_code}' -X PUT \
    -d "$fig2_body" "http://$1/policies/$2")"
  if [ "$code" != "201" ]; then
    echo "smoke: PUT /policies/$2 returned $code" >&2
    cat /tmp/smoke-put.json >&2 || true
    exit 1
  fi
}

/tmp/minupd -addr "$addr" -debug-addr "$dbg1" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT INT TERM

# Poll /healthz until the server is up (max ~5s).
i=0
until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: minupd did not become healthy at $addr" >&2
    exit 1
  fi
  sleep 0.1
done
echo "smoke: /healthz ok"

fetch() {
  # fetch <url> <outfile>: assert HTTP 200 and a non-empty body.
  code="$(curl -sS -o "$2" -w '%{http_code}' "$1")"
  if [ "$code" != "200" ]; then
    echo "smoke: GET $1 returned $code" >&2
    cat "$2" >&2 || true
    exit 1
  fi
  if [ ! -s "$2" ]; then
    echo "smoke: GET $1 returned an empty body" >&2
    exit 1
  fi
}

put_fig2 "$addr" 'fig2?wait=1'
grep -q '"solved": true' /tmp/smoke-put.json
echo "smoke: PUT /policies/fig2 ok"

fetch "http://$addr/policies/fig2/solve?trace=1" /tmp/smoke-solve.json
grep -q '"B": "L5"' /tmp/smoke-solve.json
grep -q '"trace_id"' /tmp/smoke-solve.json
echo "smoke: /policies/fig2/solve?trace=1 ok"

fetch "http://$addr/metrics?format=prometheus" /tmp/smoke-metrics.txt
grep -q '^# TYPE solve_count counter' /tmp/smoke-metrics.txt
grep -q '^solve_duration_us_bucket{le="+Inf"}' /tmp/smoke-metrics.txt
grep -q '^http_in_flight ' /tmp/smoke-metrics.txt
echo "smoke: /metrics?format=prometheus ok"

fetch "http://$addr/policies/fig2/trace?format=chrome" artifacts/sample-trace.json
grep -q '"traceEvents"' artifacts/sample-trace.json
echo "smoke: /policies/fig2/trace?format=chrome ok (artifacts/sample-trace.json)"

fetch "http://$addr/policies/fig2/trace" /tmp/smoke-trace.json
grep -q '"spans"' /tmp/smoke-trace.json
echo "smoke: /policies/fig2/trace ok"

fetch "http://$addr/readyz" /tmp/smoke-ready.txt
grep -q 'ready' /tmp/smoke-ready.txt
echo "smoke: /readyz ok"

# The flight recorder's live introspection view on the debug listener: the
# solves issued above must be in the ring, in both the JSON and HTML views.
fetch "http://$dbg1/debug/requests?format=json" /tmp/smoke-flight.json
grep -q '"total_records"' /tmp/smoke-flight.json
grep -q '"route": "policy.solve"' /tmp/smoke-flight.json
fetch "http://$dbg1/debug/requests" /tmp/smoke-flight.html
grep -q '/debug/requests' /tmp/smoke-flight.html
echo "smoke: /debug/requests ok (JSON and HTML)"

# The SLO burn-rate and runtime gauges are part of the Prometheus exposition
# from the first scrape (/metrics samples them on every read).
fetch "http://$addr/metrics?format=prometheus" /tmp/smoke-metrics-slo.txt
grep -q '^# TYPE slo_policy_solve_avail_burn_5m_milli gauge' /tmp/smoke-metrics-slo.txt
grep -q '^slo_policy_solve_latency_burn_1h_milli ' /tmp/smoke-metrics-slo.txt
grep -q '^runtime_goroutines ' /tmp/smoke-metrics-slo.txt
echo "smoke: SLO burn-rate and runtime gauges exported"

# --- Robustness: a throttled chaos instance -------------------------------
# One slot, no queue, a 20ms solve budget, and a fault injector that delays
# every solver step 30ms: any minimal solve blows its deadline (forcing the
# Qian-baseline degraded path), and concurrent requests overflow the gate
# (forcing sheds). A refresh needs a few hundred ms under that delay, so a
# solve issued right after an un-waited PUT finds the version cold.
dump_dir="$(mktemp -d)"
/tmp/minupd \
  -addr "$addr2" -debug-addr "$dbg2" \
  -max-inflight 1 -max-queue 0 -solve-timeout 20ms \
  -flight-dump-dir "$dump_dir" \
  -fault 'solve.step:delay:%1:30ms' &
pid2=$!
# The traps wait for the killed servers before removing their directories:
# a SIGTERMed minupd drains and then writes its final flight dump there.
trap 'kill "$pid" "$pid2" 2>/dev/null || true; wait "$pid" "$pid2" 2>/dev/null || true; rm -rf "$dump_dir"' EXIT INT TERM

i=0
until curl -fsS "http://$addr2/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "smoke: throttled minupd did not become healthy at $addr2" >&2
    exit 1
  fi
  sleep 0.1
done

put_fig2 "$addr2" degraded
fetch "http://$addr2/policies/degraded/solve" /tmp/smoke-degraded.json
grep -q '"degraded": true' /tmp/smoke-degraded.json
grep -q '"degrade_reason": "deadline"' /tmp/smoke-degraded.json
grep -q '"assignment"' /tmp/smoke-degraded.json
echo "smoke: forced-degraded cold solve ok"

# The degraded request is an anomaly: it must be in the flight recorder's
# anomaly ring with a dump file name, the dump must exist on disk as a
# Perfetto-loadable trace, and the route's availability burn gauge must
# move (a degraded 200 still burns error budget).
fetch "http://$dbg2/debug/requests?format=json" /tmp/smoke-flight2.json
grep -q '"degraded": true' /tmp/smoke-flight2.json
grep -q '"degrade_reason": "deadline"' /tmp/smoke-flight2.json
grep -q '"recent_anomalies"' /tmp/smoke-flight2.json
dump_file="$(ls "$dump_dir" | head -n 1)"
if [ -z "$dump_file" ]; then
  echo "smoke: degraded request left no anomaly dump in $dump_dir" >&2
  exit 1
fi
grep -q '"traceEvents"' "$dump_dir/$dump_file"
echo "smoke: degraded anomaly dumped ($dump_file)"

fetch "http://$addr2/metrics?format=prometheus" /tmp/smoke-metrics-burn.txt
burn="$(awk '/^slo_policy_solve_avail_burn_5m_milli /{print $2}' /tmp/smoke-metrics-burn.txt)"
if [ -z "$burn" ] || [ "$burn" -le 0 ]; then
  echo "smoke: availability burn gauge did not move (got '${burn:-absent}')" >&2
  exit 1
fi
echo "smoke: availability burn gauge moved (slo_policy_solve_avail_burn_5m_milli=$burn)"

# Fire 8 concurrent solves at the single-slot gate, each of a fresh cold
# policy; with each solve pinned down by the 30ms step delay, most must be
# shed with 503.
for n in 1 2 3 4 5 6 7 8; do
  put_fig2 "$addr2" "shed$n"
done
: > /tmp/smoke-shed-codes.txt
curl_pids=""
for n in 1 2 3 4 5 6 7 8; do
  curl -sS -o /dev/null -w '%{http_code}\n' "http://$addr2/policies/shed$n/solve" >> /tmp/smoke-shed-codes.txt &
  curl_pids="$curl_pids $!"
done
for p in $curl_pids; do
  wait "$p" || true
done
if ! grep -q '^503$' /tmp/smoke-shed-codes.txt; then
  echo "smoke: no request was shed under concurrent load" >&2
  cat /tmp/smoke-shed-codes.txt >&2
  exit 1
fi
echo "smoke: load shedding ok ($(grep -c '^503$' /tmp/smoke-shed-codes.txt) of 8 shed)"

fetch "http://$addr2/metrics?format=prometheus" /tmp/smoke-metrics2.txt
grep -q '^# TYPE http_shed counter' /tmp/smoke-metrics2.txt
# Capture the values explicitly: piping grep into awk would pass vacuously
# when the series is absent (awk over empty input exits 0).
shed="$(awk '/^http_shed /{print $2}' /tmp/smoke-metrics2.txt)"
if [ -z "$shed" ] || [ "$shed" -le 0 ]; then
  echo "smoke: http_shed counter missing or zero (got '${shed:-absent}')" >&2
  exit 1
fi
degraded="$(awk '/^solve_degraded /{print $2}' /tmp/smoke-metrics2.txt)"
if [ -z "$degraded" ] || [ "$degraded" -le 0 ]; then
  echo "smoke: solve_degraded counter missing or zero (got '${degraded:-absent}')" >&2
  exit 1
fi
echo "smoke: http_shed and solve_degraded counters ok (shed=$shed degraded=$degraded)"

# --- Policy catalog: durability across restart ----------------------------
# A durable catalog server, sharded two ways: create a
# policy, append a constraint with ?wait=1 (its refresh runs inline),
# solve twice asserting the second solve is a memoized cache
# hit, then SIGTERM and restart on the same data directory — with no
# -shards flag, so recovery must honor the shard count pinned in the
# directory's meta file — and assert the policy state survived.
data_dir="$(mktemp -d)"
/tmp/minupd -addr "$addr3" -debug-addr "" -data-dir "$data_dir" -shards 2 &
pid3=$!
trap 'kill "$pid" "$pid2" "$pid3" 2>/dev/null || true; wait "$pid" "$pid2" "$pid3" 2>/dev/null || true; rm -rf "$data_dir" "$dump_dir"' EXIT INT TERM

wait_healthy() {
  i=0
  until curl -fsS "http://$1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
      echo "smoke: minupd did not become healthy at $1" >&2
      exit 1
    fi
    sleep 0.1
  done
}
wait_healthy "$addr3"

request() {
  # request <method> <url> <body-or-empty> <outfile>: print the status code.
  if [ -n "$3" ]; then
    curl -sS -o "$4" -w '%{http_code}' -X "$1" -d "$3" "$2"
  else
    curl -sS -o "$4" -w '%{http_code}' -X "$1" "$2"
  fi
}

# ?wait=1 warms the memoized solve inline, deterministically.
code="$(request PUT "http://$addr3/policies/smoke?wait=1" \
  '{"lattice":"chain mil\nlevels U C S TS\n","constraints":"attrs salary rank\nsalary >= rank\nrank >= S\n"}' \
  /tmp/smoke-policy.json)"
if [ "$code" != "201" ]; then
  echo "smoke: PUT /policies/smoke returned $code" >&2
  cat /tmp/smoke-policy.json >&2 || true
  exit 1
fi
grep -q '"solved": true' /tmp/smoke-policy.json
if grep -q '"constraints_text"' /tmp/smoke-policy.json; then
  echo "smoke: the PUT ack echoes the constraint text" >&2
  cat /tmp/smoke-policy.json >&2
  exit 1
fi
echo "smoke: policy created with a warm cache"

code="$(request POST "http://$addr3/policies/smoke/constraints?wait=1" \
  '{"constraints":"rank >= TS\n"}' /tmp/smoke-append.json)"
if [ "$code" != "200" ]; then
  echo "smoke: append returned $code" >&2
  cat /tmp/smoke-append.json >&2 || true
  exit 1
fi
if ! grep -q '"version": 2,' /tmp/smoke-append.json || ! grep -q '"solved": true' /tmp/smoke-append.json; then
  echo "smoke: waited append did not answer version 2 solved" >&2
  cat /tmp/smoke-append.json >&2 || true
  exit 1
fi
if grep -q '"constraints_text"' /tmp/smoke-append.json; then
  echo "smoke: the append ack echoes the constraint text" >&2
  cat /tmp/smoke-append.json >&2
  exit 1
fi
fetch "http://$addr3/policies/smoke" /tmp/smoke-get.json
grep -q '"constraints_text"' /tmp/smoke-get.json
echo "smoke: constraint appended and solved inline (version 2); only GET carries the texts"

fetch "http://$addr3/policies" /tmp/smoke-index.json
grep -q '"name": "smoke"' /tmp/smoke-index.json
grep -q '"etag"' /tmp/smoke-index.json
grep -q '"shard"' /tmp/smoke-index.json
grep -q '"solved"' /tmp/smoke-index.json
echo "smoke: /policies index carries etag, shard, and cache state"

fetch "http://$addr3/policies/smoke/solve" /tmp/smoke-psolve1.json
grep -q '"assignment"' /tmp/smoke-psolve1.json
fetch "http://$addr3/policies/smoke/solve" /tmp/smoke-psolve2.json
grep -q '"cache_hit": true' /tmp/smoke-psolve2.json
if ! cmp /tmp/smoke-psolve1.json /tmp/smoke-psolve2.json; then
  echo "smoke: two hits of version 2 answered different bodies" >&2
  exit 1
fi
fetch "http://$addr3/metrics?format=prometheus" /tmp/smoke-metrics3.txt
hits="$(awk '/^catalog_cache_hits /{print $2}' /tmp/smoke-metrics3.txt)"
if [ -z "$hits" ] || [ "$hits" -le 0 ]; then
  echo "smoke: catalog_cache_hits missing or zero (got '${hits:-absent}')" >&2
  exit 1
fi
echo "smoke: second solve served from cache (catalog_cache_hits=$hits)"
if ! grep -q '^catalog_shard_' /tmp/smoke-metrics3.txt; then
  echo "smoke: no per-shard catalog_shard_* series in /metrics" >&2
  exit 1
fi
completed="$(awk '/^catalog_refresh_completed /{print $2}' /tmp/smoke-metrics3.txt)"
if [ -z "$completed" ] || [ "$completed" -le 0 ]; then
  echo "smoke: catalog_refresh_completed missing or zero (got '${completed:-absent}')" >&2
  exit 1
fi
echo "smoke: per-shard gauges and refresh counters exported (catalog_refresh_completed=$completed)"

# --- Problem frontends: compile-and-store through /problems ---------------
# The frontend routes compile a source-problem instance (here a Kao-style
# cell-suppression table) into an ordinary catalog policy: list the
# registered families, create a compiled problem with a waited mutation,
# and assert the stored policy serves a memoized solve like any other.
fetch "http://$addr3/problems" /tmp/smoke-problems.json
grep -q '"suppress"' /tmp/smoke-problems.json
grep -q '"depinf"' /tmp/smoke-problems.json
echo "smoke: /problems lists the registered frontend families"

code="$(request POST "http://$addr3/problems/suppress?wait=1&name=smokeprob" \
  '{"name":"smoketab","levels":["open","secret"],"rows":3,"cols":3,"sensitive":[{"row":0,"col":0,"level":"secret"}]}' \
  /tmp/smoke-problem.json)"
if [ "$code" != "201" ]; then
  echo "smoke: POST /problems/suppress returned $code" >&2
  cat /tmp/smoke-problem.json >&2 || true
  exit 1
fi
grep -q '"family": "suppress"' /tmp/smoke-problem.json
grep -q '"solved": true' /tmp/smoke-problem.json
echo "smoke: suppress instance compiled and stored with a warm cache"

fetch "http://$addr3/policies/smokeprob/solve" /tmp/smoke-probsolve1.json
grep -q '"assignment"' /tmp/smoke-probsolve1.json
fetch "http://$addr3/policies/smokeprob/solve" /tmp/smoke-probsolve2.json
grep -q '"cache_hit": true' /tmp/smoke-probsolve2.json
echo "smoke: compiled problem serves memoized solves like any policy"

kill -TERM "$pid3"
wait "$pid3" || true
/tmp/minupd -addr "$addr3" -debug-addr "" -data-dir "$data_dir" &
pid3=$!
wait_healthy "$addr3"

code="$(request GET "http://$addr3/policies/smoke" "" /tmp/smoke-survived.json)"
if [ "$code" != "200" ]; then
  echo "smoke: policy did not survive the restart (GET returned $code)" >&2
  cat /tmp/smoke-survived.json >&2 || true
  exit 1
fi
grep -q '"version": 2' /tmp/smoke-survived.json
# encoding/json writes '>' as a backslash-u003e escape inside the stored
# constraint text, so the pattern matches that form.
grep -q 'rank .u003e= TS' /tmp/smoke-survived.json
fetch "http://$addr3/policies/smoke/solve" /tmp/smoke-psolve3.json
grep -q '"rank": "TS"' /tmp/smoke-psolve3.json
echo "smoke: policy survived restart with its appended constraint"

# The compiled problem is durable too: it restarts as an ordinary policy
# and still solves (the Kao reduction forces the sensitive corner cell up).
code="$(request GET "http://$addr3/policies/smokeprob" "" /tmp/smoke-probsurvived.json)"
if [ "$code" != "200" ]; then
  echo "smoke: compiled problem did not survive the restart (GET returned $code)" >&2
  cat /tmp/smoke-probsurvived.json >&2 || true
  exit 1
fi
fetch "http://$addr3/policies/smokeprob/solve" /tmp/smoke-probsolve3.json
grep -q '"r0c0": "secret"' /tmp/smoke-probsolve3.json
echo "smoke: compiled problem survived restart and still solves"

# The restart ran without -shards: the per-shard gauges must still show the
# two-shard layout pinned in the data directory's meta file.
fetch "http://$addr3/metrics?format=prometheus" /tmp/smoke-metrics4.txt
if ! grep -q '^catalog_shard_1_policies ' /tmp/smoke-metrics4.txt; then
  echo "smoke: restart did not honor the pinned 2-shard layout" >&2
  grep '^catalog_shard' /tmp/smoke-metrics4.txt >&2 || true
  exit 1
fi
echo "smoke: restart honored the data directory's pinned shard count"

echo "smoke: all checks passed"
