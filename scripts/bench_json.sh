#!/usr/bin/env sh
# Run the solve-path benchmark family — the fresh/compiled split, the
# policy catalog's memoized serve path, the policy-text parse every put,
# append and replay pays, and the compile and compile + repair every
# refreshed version pays — and write the measurements as
# machine-readable JSON (default BENCH_solve.json), seeding the perf
# trajectory CI keeps as an artifact.
#
# Usage: scripts/bench_json.sh [outfile]
set -eu

out="${1:-BENCH_solve.json}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT INT TERM

go test -run '^$' \
  -bench '^(BenchmarkSolveFresh|BenchmarkSolveCompiled|BenchmarkSolveCompiledStats|BenchmarkCatalogServe|BenchmarkSolveSuppress|BenchmarkSolveDepinf|BenchmarkParsePolicy|BenchmarkCompile|BenchmarkRefresh)$' \
  -benchmem -count 1 . | tee "$tmp"

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
for want in BenchmarkSolveFresh BenchmarkSolveCompiled BenchmarkSolveCompiledStats BenchmarkCatalogServe \
            BenchmarkSolveSuppress BenchmarkSolveDepinf \
            BenchmarkParsePolicy/paper BenchmarkParsePolicy/suppress BenchmarkParsePolicy/depinf \
            BenchmarkCompile BenchmarkRefresh; do
  if ! grep -q "\"$want\"" "$out"; then
    echo "bench_json: $want missing from $out" >&2
    exit 1
  fi
done
echo "bench_json: wrote $out"
