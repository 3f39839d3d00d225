#!/usr/bin/env bash
# Takes one CPU profile of every minupd process while a perfbench workload
# runs its timed sequence, and writes each profile with its
# `go tool pprof -top -cum` summary under .bench_build/perfbench/profiles/.
# For the same window it also writes each server's allocations: the heap
# profile (/debug/pprof/allocs) is fetched when the CPU window starts and
# when it ends, and `go tool pprof -base <start> -sample_index=alloc_objects
# -top` of the two is the .allocs.top.txt summary.
#
# Usage: scripts/profile_perfbench.sh <workload> [seconds] [seed]
#
# seconds (default 25) is perfbench's --seconds: it sets the length of the
# fixed op sequence, not its duration. Each profile lasts seconds/4, so
# the timed part outlasts it: on a 2-vCPU host cold_create runs the timed
# part of its 20-second sequence in about 7 s. An untraced run sets up
# three times, each on new minupd processes with a new data directory, and
# only the last set-up runs the sequence. The script waits until the set of servers has
# been replaced twice, then profiles every server of that last set in
# parallel through its loopback -debug-addr pprof endpoint. It counts
# replacements by the run's set-up directories rather than by polling
# PIDs: a cold_create set-up lives for about 20 ms, too short to be seen
# reliably. Profile on an otherwise idle machine: the servers share its
# cores with the load generator. A fetch that fails, most often because the
# timed part ended inside the window, ends the script with an error that
# names the server; the run's earlier outputs are deleted first, so no
# summary of an older run is left to be read as this one's.
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
dur=$((seconds / 4))
((dur >= 1)) || dur=1

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

# fetch saves one pprof endpoint of the server at $3 to $1.
fetch() {
	if ! curl -sf -o "$1" "$2"; then
		echo "profile_perfbench: fetching $2 from minupd $3 failed: the ${dur}s profile window outlasted the workload's timed part; rerun with a larger seconds than $seconds" >&2
		return 1
	fi
}

i=0
profs=()
curls=()
for p in $procs; do
	args=$(ps -o args= -p "$p")
	addr=$(sed -n 's/.* -addr \([^ ]*\).*/\1/p' <<<"$args")
	dbg=$(sed -n 's/.* -debug-addr \([^ ]*\).*/\1/p' <<<"$args")
	role=$(curl -s "http://$addr/cluster" | grep -o '"role": *"[a-z]*"' | sed 's/.*"\([a-z]*\)"$/\1/' || true)
	prof=$out/$tag-node$i${role:+-$role}.pprof
	base=${prof%.pprof}
	fetch "$base.allocs-start.pb.gz" "http://$dbg/debug/pprof/allocs" "$addr"
	{
		fetch "$prof" "http://$dbg/debug/pprof/profile?seconds=$dur" "$addr" &&
			fetch "$base.allocs-end.pb.gz" "http://$dbg/debug/pprof/allocs" "$addr"
	} &
	curls+=($!)
	profs+=("$prof")
	i=$((i + 1))
done
# wait with several PIDs reports only the last one's status.
failed=0
for c in "${curls[@]}"; do
	wait "$c" || failed=1
done
((failed == 0)) || exit 1

for prof in "${profs[@]}"; do
	base=${prof%.pprof}
	go tool pprof -top -cum "$bin" "$prof" >"$base.top.txt" 2>/dev/null
	go tool pprof -sample_index=alloc_objects -top -base "$base.allocs-start.pb.gz" \
		"$bin" "$base.allocs-end.pb.gz" >"$base.allocs.top.txt" 2>/dev/null
	echo "profile_perfbench: $prof (summaries $base.top.txt, $base.allocs.top.txt)"
done
wait "$run" || true
trap - EXIT
tail -n 1 "$out/$tag.run.out"
