#!/usr/bin/env sh
# Load smoke (`make load-smoke`): start one minupd with fault admin enabled,
# store the Figure 2(a) fixtures as policy fig2, then run cmd/minload's
# staged plan scaled down to CI size — a short ramp, storm, and chaos stage —
# writing per-stage JSON into artifacts/load/ for CI to upload. Then the
# negative check: rerun the ramp with an impossibly tight p99 gate and
# require a nonzero exit, proving the gates actually gate. Needs curl and jq.
#
# Usage: scripts/load_smoke.sh [addr] [debug-addr]
#        (defaults 127.0.0.1:18091 and 127.0.0.1:16071)
set -eu

addr="${1:-127.0.0.1:18091}"
dbg="${2:-127.0.0.1:16071}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"
out_dir="artifacts/load"
rm -rf "$out_dir"
mkdir -p "$out_dir"

go build -o /tmp/minupd ./cmd/minupd
go build -o /tmp/minload ./cmd/minload

/tmp/minupd -addr "$addr" -debug-addr "$dbg" -fault-admin &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT INT TERM

i=0
until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "load-smoke: minupd did not become healthy at $addr" >&2
    exit 1
  fi
  sleep 0.1
done

code="$(jq -n --rawfile l testdata/lattice_fig1b.txt \
    --rawfile c testdata/constraints_fig2.txt '{lattice:$l,constraints:$c}' |
  curl -sS -o /tmp/load-smoke-put.json -w '%{http_code}' -X PUT --data-binary @- \
    "http://$addr/policies/fig2?wait=1")"
if [ "$code" != "201" ]; then
  echo "load-smoke: PUT /policies/fig2 returned $code" >&2
  cat /tmp/load-smoke-put.json >&2 || true
  exit 1
fi

# ~30s total: ramp + storm + chaos at 10s each. The chaos stage arms the
# fault injector over /debug/fault and must disarm it afterwards.
/tmp/minload \
  -addr "http://$addr" -debug-addr "http://$dbg" \
  -stages ramp,storm,chaos -stage-seconds 10 \
  -out "$out_dir"
echo "load-smoke: staged run passed"

# The stage JSON artifacts are machine-readable and complete.
for f in stage-00-ramp.json stage-01-storm.json stage-02-chaos.json summary.json; do
  if [ ! -s "$out_dir/$f" ]; then
    echo "load-smoke: missing result file $out_dir/$f" >&2
    ls -l "$out_dir" >&2 || true
    exit 1
  fi
done
grep -q '"gate_passed": true' "$out_dir/stage-00-ramp.json"
grep -q '"passed": true' "$out_dir/summary.json"
grep -q '"build_info"' "$out_dir/summary.json"
# The server sample is the decoded registry snapshot, keyed by registry name:
# the ramp's solves moved the 2xx counter and /metrics sampled the runtime.
if ! jq -e '.server.counter_deltas["http.policy.solve.status.2xx"] > 0 and
    .server.gauges["runtime.goroutines"] > 0' "$out_dir/stage-00-ramp.json" >/dev/null; then
  echo "load-smoke: ramp stage lacks its scraped server sample" >&2
  jq '.server' "$out_dir/stage-00-ramp.json" >&2 || true
  exit 1
fi
echo "load-smoke: per-stage JSON artifacts written to $out_dir"

# The chaos stage must leave the injector disarmed.
if ! curl -fsS "http://$dbg/debug/fault" | grep -q '"armed":[ ]*false'; then
  echo "load-smoke: fault injector still armed after the chaos stage" >&2
  exit 1
fi
echo "load-smoke: chaos stage disarmed the injector"

# Negative check: a deliberately impossible gate must fail the run with a
# nonzero exit. (0.0001ms p99 is below any real network round trip.)
cat > /tmp/load-smoke-tight.json <<'EOF'
{
  "seed": 1,
  "stages": [
    {
      "name": "tight", "kind": "soak", "seconds": 3, "clients": 4,
      "qps": 50,
      "mix": {"mutate": 0.2, "cached_solve": 0.75, "trace": 0.05},
      "gates": {"max_p99_ms": 0.0001}
    }
  ]
}
EOF
if /tmp/minload -addr "http://$addr" -debug-addr "http://$dbg" \
    -plan /tmp/load-smoke-tight.json -out "$out_dir/tight"; then
  echo "load-smoke: impossible p99 gate PASSED — gates are not gating" >&2
  exit 1
fi
grep -q '"gate_passed": false' "$out_dir/tight/stage-00-tight.json"
echo "load-smoke: tightened gate correctly failed the run"

kill -TERM "$pid"
wait "$pid" || true

echo "load-smoke: all checks passed"
