# Developer entry points. `make ci` runs the CI test job's vet, format,
# race-detector, shuffled-order and perfbench-module steps. It leaves out
# that job's shard matrix (`make shard-matrix`), one-iteration benchmark
# smoke and `make bench-json`, and the chaos, fuzz-smoke, slo-smoke,
# smoke, load-smoke, cluster-smoke and bench-trend jobs, which each have a
# target below.

GO ?= go

.PHONY: all build test race vet fmt-check ci bench bench-json bench-trend smoke slo-smoke load-smoke cluster-smoke chaos fuzz-smoke shard-matrix

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail when the list is non-empty.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own module, which `./...` never builds.
ci: vet fmt-check race
	$(GO) test -shuffle=on ./...
	cd perfbench && $(GO) vet . && $(GO) test -short .

bench:
	$(GO) test -bench . -benchmem ./...

# Machine-readable solve-path benchmarks: the fresh/compiled split, the
# policy catalog's memoized serve path and the policy-text parse, written
# to BENCH_solve.json (CI uploads it as an artifact).
bench-json:
	sh scripts/bench_json.sh

# Bench-trend regression gate: rerun the solve-path benchmarks and compare
# against the committed BENCH_solve.json baseline with cmd/benchtrend.
# Fails on >20% ns/op regression or any allocs/op increase. Refresh the
# baseline deliberately with `make bench-json` and commit the result.
bench-trend:
	sh scripts/bench_trend.sh

# End-to-end HTTP smoke of minupd on the Figure 2(a) fixtures plus the
# durable policy catalog (create/append/cached-solve/restart); leaves a
# sample Chrome trace at artifacts/sample-trace.json.
smoke:
	sh scripts/smoke_minupd.sh

# Focused observability smoke: forced-degraded traffic must land in
# /debug/requests, leave Perfetto-loadable anomaly dumps under
# artifacts/anomalies (kept for CI upload), and move the SLO burn gauges.
slo-smoke:
	sh scripts/slo_smoke.sh

# Staged load smoke (~30s): cmd/minload's ramp, storm, and chaos stages
# against a fault-admin minupd, per-stage JSON under artifacts/load, plus
# the negative check that an impossibly tight gate fails the run.
load-smoke:
	sh scripts/load_smoke.sh

# Replication smoke (~15s): boot a 3-node cluster, write acked policies
# through the leader (via a follower 307), SIGKILL the leader, and assert
# failover, zero lost acked mutations, converged fingerprints, and the
# crashed node rejoining via snapshot resync. Status JSON lands under
# artifacts/cluster/.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# The catalog suite under the race detector at the extremes of the shard
# spectrum: one shard (maximum lock contention, the pre-sharding shape) and
# four (cross-shard interleavings). Tests that pin their own shard count
# are unaffected; the rest read CATALOG_TEST_SHARDS via mustOpen.
shard-matrix:
	CATALOG_TEST_SHARDS=1 $(GO) test -race -count=1 ./internal/catalog
	CATALOG_TEST_SHARDS=4 $(GO) test -race -count=1 ./internal/catalog

# Fault-injection and resilience suites under the race detector: the
# concurrent chaos storm, panic isolation, admission/shedding, degraded
# serving, graceful-shutdown drain, and the catalog/WAL crash-recovery and
# torn-tail sweeps.
chaos:
	$(GO) test -race -run 'Chaos|Panic|Fault|Injected|Degrad|Shed|Drain|Shutdown|Ready|Gate|Crash|Torn|Recover|Partition|Catchup|Resyncs|OracleSweep' \
		./internal/fault ./internal/core ./cmd/minupd ./internal/catalog ./internal/wal ./internal/cluster \
		./internal/frontend/suppress ./internal/frontend/depinf

# Short fuzz of every fuzz target (go fuzzes one target per invocation).
# The jsoncodec targets are differential against encoding/json: FuzzDecoder
# the reader, FuzzAppendString the string writer, FuzzWALRecord the WAL
# record's bytes and round trip, FuzzSnapshot a shard snapshot's bytes
# (json.MarshalIndent's), and FuzzClusterEnvelope the cluster message and
# reply bytes, their reading, and the refusal of a repeated or
# differently cased key. FuzzDepinfParse, FuzzSolveBody and FuzzInfoBody
# check depinf's instance layout and minupd's solve-body and policy-answer
# (GET, PUT, append and problem ack) layouts on top of that codec.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/lattice
	$(GO) test -run '^$$' -fuzz '^FuzzMLSParseLevel$$' -fuzztime $(FUZZTIME) ./internal/lattice
	$(GO) test -run '^$$' -fuzz '^FuzzParseString$$' -fuzztime $(FUZZTIME) ./internal/constraint
	$(GO) test -run '^$$' -fuzz '^FuzzParseDIMACS$$' -fuzztime $(FUZZTIME) ./internal/poset
	$(GO) test -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSuppressCompile$$' -fuzztime $(FUZZTIME) ./internal/frontend/suppress
	$(GO) test -run '^$$' -fuzz '^FuzzDepinfCompile$$' -fuzztime $(FUZZTIME) ./internal/frontend/depinf
	$(GO) test -run '^$$' -fuzz '^FuzzDepinfParse$$' -fuzztime $(FUZZTIME) ./internal/frontend/depinf
	$(GO) test -run '^$$' -fuzz '^FuzzSolveBody$$' -fuzztime $(FUZZTIME) ./cmd/minupd
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime $(FUZZTIME) ./internal/jsoncodec
	$(GO) test -run '^$$' -fuzz '^FuzzAppendString$$' -fuzztime $(FUZZTIME) ./internal/jsoncodec
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzClusterEnvelope$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzInfoBody$$' -fuzztime $(FUZZTIME) ./cmd/minupd
