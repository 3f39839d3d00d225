#!/usr/bin/env sh
# Run the solve-path benchmark family — the fresh/compiled split, the
# cold solve of each shape perfbench's workloads solve, the
# policy catalog's memoized serve path and the HTTP handler above it
# (cmd/minupd), the solve-body writer a version's first hit runs, a waited
# problem create through that handler (cmd/minupd), a waited
# put and append through the catalog, the problem frontends' instance
# parse and compile to
# policy text, the policy-text parse every put, append and replay pays,
# the clone and one-line parse every append stages on every node (onto
# the version the last stage made, and again onto one whose spare room an
# earlier stage took),
# the compile and compile + cold solve every refreshed version pays,
# compile + repair of the same version, the JSON codec's rungs: a PUT
# body's read and decode, and a WAL record's encode and decode, and one
# replicated append's round trip over loopback (internal/cluster) — and
# write the measurements as machine-readable JSON (default
# BENCH_solve.json), seeding the perf trajectory CI keeps as an artifact.
#
# Usage: scripts/bench_json.sh [outfile]
set -eu

out="${1:-BENCH_solve.json}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

# Every row of the committed baseline must come out of the run: read its
# names before the run can overwrite it. A new benchmark is added to the
# -bench regex alone, and is guarded once its row is committed.
if [ ! -f BENCH_solve.json ]; then
  echo "bench_json: BENCH_solve.json, whose rows the run must produce, is missing" >&2
  exit 1
fi
rows="$(grep -o '"Benchmark[^"]*"' BENCH_solve.json | tr -d '"')"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT INT TERM

go test -run '^$' \
  -bench '^(BenchmarkSolveFresh|BenchmarkSolveCompiled|BenchmarkSolveShapes|BenchmarkSolveCompiledStats|BenchmarkCatalogServe|BenchmarkCatalogMutate|BenchmarkHTTPPolicySolve|BenchmarkHTTPProblemCreate|BenchmarkSolveBody|BenchmarkSolveSuppress|BenchmarkSolveDepinf|BenchmarkFrontendCompile|BenchmarkProblemParse|BenchmarkParsePolicy|BenchmarkAppendStage|BenchmarkAppendChain|BenchmarkCompile|BenchmarkRefresh|BenchmarkRepairCompiled|BenchmarkPolicyBody|BenchmarkWALRecord|BenchmarkClusterAppendRPC)$' \
  -benchmem -count 1 . ./cmd/minupd ./internal/catalog ./internal/cluster | tee "$tmp"

# One JSON object keyed by benchmark name (GOMAXPROCS suffix stripped);
# `go test -bench` lines are "Name-N  iters  ns/op  B/op  allocs/op".
awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ && $4 == "ns/op" {
  name = $1; sub(/-[0-9]+$/, "", name)
  if (!first) printf(",\n")
  first = 0
  printf("  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
         name, $2, $3, $5, $7)
}
END { print "\n}" }' "$tmp" > "$out"

# Guard against a silently empty run (e.g. a benchmark regex typo).
for want in $rows; do
  if ! grep -q "\"$want\"" "$out"; then
    echo "bench_json: $want missing from $out" >&2
    exit 1
  fi
done
echo "bench_json: wrote $out"
