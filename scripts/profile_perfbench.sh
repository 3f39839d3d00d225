#!/usr/bin/env bash
# Profiles every minupd process while a perfbench workload runs its timed
# sequence, and writes each server's CPU profile with its
# `go tool pprof -top -cum` summary under .bench_build/perfbench/profiles/.
# The CPU profile is fetched in consecutive one-second slices until a fetch
# finds the server gone, so the window follows the timed part however fast
# the host runs it; `go tool pprof -proto` merges the slices into one
# profile. The heap profile (/debug/pprof/allocs) is fetched before the
# first slice and after each one, and a slice is kept only when the fetch
# after it succeeds, so the kept slices and the first and last heap
# profiles cover one window: `go tool pprof -base <first>
# -sample_index=alloc_objects -top` of the two is the .allocs.top.txt
# summary. Those heap fetches allocate too, under net/http/pprof and
# runtime/pprof frames.
#
# Usage: scripts/profile_perfbench.sh <workload> [seconds] [seed]
#
# seconds (default 25) is perfbench's --seconds: it sets the length of the
# fixed op sequence, not its duration. An untraced run sets up three times,
# each on new minupd processes with a new data directory, and only the last
# set-up runs the sequence. The script waits until the set of servers has
# been replaced twice, then profiles every server of that last set in
# parallel through its loopback -debug-addr pprof endpoint, from a second
# after that set-up starts until perfbench stops it. The window therefore
# also holds the end of that set-up's warm-up and the run's closing reads,
# besides the timed part. The script counts replacements by the run's
# set-up directories rather than by polling PIDs: a cold_create set-up
# lives for about 20 ms, too short to be seen reliably. Profile on an
# otherwise idle machine: the servers share its cores with the load
# generator. A server that stops before one slice and the heap fetch after
# it complete ends the script with an error that names it; the run's earlier
# outputs are deleted first, so no summary of an older run is left to be
# read as this one's.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 3 ]]; then
	echo "usage: scripts/profile_perfbench.sh <workload> [seconds] [seed]" >&2
	exit 2
fi
workload=$1
seconds=${2:-25}
seed=${3:-1}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin

out=.bench_build/perfbench/profiles
mkdir -p "$out"
tag=$workload-s$seed
rm -f "$out/$tag".* "$out/$tag"-node*
bin=$root/.bench_build/perfbench/minupd
bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
	>"$out/$tag.run.out" 2>"$out/$tag.run.err" &
run=$!
# run.sh execs perfbench, which stops its servers on SIGINT.
trap 'kill -INT "$run" 2>/dev/null || true' EXIT

# pids lists this checkout's running minupd servers.
pids() { pgrep -f "^$bin -addr" | sort -n | tr '\n' ' ' || true; }

# run.sh execs perfbench, so $run is perfbench's PID, which names its work
# directory. perfbench stops one set-up's servers before it creates the
# next set-up's directory, so once the third exists every server that
# runs belongs to the last set-up.
setups=.bench_build/perfbench/runs/$workload-s$seed-t0-$run/http
until [[ -d $setups && $(find "$setups" -mindepth 1 -maxdepth 1 -type d -name 'setup*' | wc -l) -ge 3 ]]; do
	if ! kill -0 "$run" 2>/dev/null; then
		echo "profile_perfbench: perfbench exited before its last set-up; see $out/$tag.run.err" >&2
		exit 1
	fi
	sleep 0.05
done
sleep 1 # let the last set-up's servers start
procs=$(pids)
if [[ -z $procs ]]; then
	echo "profile_perfbench: no minupd server is running; see $out/$tag.run.err" >&2
	exit 1
fi

# profile_server takes one-second CPU slices of the server whose debug
# listener is $2 into $1.slice<n>.pprof until a fetch fails, fetching the
# heap profile before the first slice ($1.allocs-start.pb.gz) and after
# each slice ($1.allocs-end.pb.gz). A slice whose heap fetch failed is
# dropped, so every kept slice lies between the two heap profiles.
profile_server() {
	local base=$1 dbg=$2 n=0
	curl -sf -o "$base.allocs-start.pb.gz" "http://$dbg/debug/pprof/allocs" || return 0
	while curl -sf -o "$base.slice$n.pprof" "http://$dbg/debug/pprof/profile?seconds=1" &&
		curl -sf -o "$base.allocs-next.pb.gz" "http://$dbg/debug/pprof/allocs"; do
		mv "$base.allocs-next.pb.gz" "$base.allocs-end.pb.gz"
		n=$((n + 1))
	done
	rm -f "$base.slice$n.pprof" "$base.allocs-next.pb.gz"
}

i=0
profs=()
addrs=()
loops=()
for p in $procs; do
	args=$(ps -o args= -p "$p")
	addr=$(sed -n 's/.* -addr \([^ ]*\).*/\1/p' <<<"$args")
	dbg=$(sed -n 's/.* -debug-addr \([^ ]*\).*/\1/p' <<<"$args")
	role=$(curl -s "http://$addr/cluster" | grep -o '"role": *"[a-z]*"' | sed 's/.*"\([a-z]*\)"$/\1/' || true)
	prof=$out/$tag-node$i${role:+-$role}.pprof
	profile_server "${prof%.pprof}" "$dbg" &
	loops+=($!)
	profs+=("$prof")
	addrs+=("$addr")
	i=$((i + 1))
done
for j in "${loops[@]}"; do
	wait "$j"
done

failed=0
for k in "${!profs[@]}"; do
	prof=${profs[$k]}
	base=${prof%.pprof}
	slices=("$base".slice*.pprof)
	if [[ ! -f ${slices[0]} || ! -f $base.allocs-end.pb.gz ]]; then
		echo "profile_perfbench: minupd ${addrs[$k]} stopped before one CPU slice and the heap fetch after it completed; see $out/$tag.run.err" >&2
		failed=1
		continue
	fi
	go tool pprof -proto "${slices[@]}" >"$prof" 2>/dev/null
	rm -f "${slices[@]}"
	go tool pprof -top -cum "$bin" "$prof" >"$base.top.txt" 2>/dev/null
	go tool pprof -sample_index=alloc_objects -top -base "$base.allocs-start.pb.gz" \
		"$bin" "$base.allocs-end.pb.gz" >"$base.allocs.top.txt" 2>/dev/null
	echo "profile_perfbench: $prof, ${#slices[@]} one-second slices (summaries $base.top.txt, $base.allocs.top.txt)"
done
wait "$run" || true
trap - EXIT
((failed == 0)) || exit 1
tail -n 1 "$out/$tag.run.out"
