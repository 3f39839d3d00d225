#!/usr/bin/env bash
# Builds cmd/minupd and the perfbench command from the checkout this is run
# in, then runs perfbench with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go build cache, binaries, data directories,
# access logs, traces) stays under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/minupd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a minup checkout (go.mod, cmd/minupd and perfbench/ must exist)" >&2
	exit 2
fi

# Fall back to the official Go distribution's default install location
# when go is not on PATH.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

out=$root/.bench_build/perfbench
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/xdg"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/xdg XDG_CACHE_HOME=$out/xdg GOENV=off
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -buildvcs=false -o "$out/minupd" ./cmd/minupd
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -minupd "$out/minupd" -work "$out/runs" "$@"
