package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"minup/internal/obs"
)

// layerMetric is one per-layer number with the count behind it: the calls
// or samples a latency is the median of, or a ratio's base. README.md maps
// each metric to the end-to-end metric it should move.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// headline lists the per-layer metrics every workload produces; they form
// the last line of a traced run. The rest are in the summary file and the
// "layers" line.
var headline = []string{
	"minupd.handler_us", "minupd.client_gap_us", "minupd.resp_bytes_per_op", "minupd.log_bytes_per_op",
	"catalog.serve_us", "catalog.mutate_us", "catalog.cache_hit_ratio", "catalog.solves_per_version",
	"wal.append_us", "wal.fsync_us", "wal.bytes_per_op",
	"constraint.parse_us", "constraint.parse_allocs", "constraint.compile_us", "constraint.size", "constraint.sccs",
	"core.check_us", "core.solve_us", "core.allocs_per_solve", "core.try_steps_per_solve", "core.descent_steps_per_solve",
	"lattice.ops_per_solve",
}

// layers collects per-layer metrics.
type layers map[string]layerMetric

func (l layers) set(name string, v float64, unit string, n int) {
	if n == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	l[name] = layerMetric{Value: v, Unit: unit, N: n}
}

// p50us sets name to the median of ns in microseconds.
func (l layers) p50us(name string, ns []int64) {
	l.set(name, percentile(ns, 0.5)/1e3, "us", len(ns))
}

// ratio sets name to num/base.
func (l layers) ratio(name string, num, base uint64, unit string) {
	if base > 0 {
		l.set(name, float64(num)/float64(base), unit, int(base))
	}
}

// opRoutes are the minupd routes a workload's ops take.
func opRoutes(w string) []string {
	switch w {
	case "hot_read":
		return []string{"policy.solve"}
	case "cold_create":
		return []string{"policy", "problem"}
	}
	return []string{"policy", "policy.constraints"}
}

// traced is a --trace 1 run: the HTTP pass untraced and then traced, the
// in-process replay with its sub-layer and WAL replays, the end-state
// check against the replay, and the per-layer summary and trace files in
// outDir.
func traced(binary, dir, outDir string, p *Plan, ref time.Duration) (*result, error) {
	plain, err := runHTTP(binary, filepath.Join(dir, "plain"), p, 1, nil)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(filepath.Join(dir, "plain"))
	tracer := obs.NewTracer()
	res, err := runHTTP(binary, filepath.Join(dir, "traced"), p, 1, tracer)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(filepath.Join(dir, "traced"))
	rep, err := tracedReplay(p, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, err
	}
	lc, err := subLayers(p, rep.timer)
	if err != nil {
		return nil, err
	}
	walBytes, err := walReplay(rep.records, filepath.Join(dir, "walreplay"), rep.timer)
	if err != nil {
		return nil, err
	}
	end := checkEnd(p, res.end, rep, res.clusterPrints)
	l := perLayer(p, plain, res, rep, lc, walBytes)

	rpt := newReport(p, res, end, ref)
	printJSON("report", rpt)
	printJSON("layers", l)
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", p.Workload, p.Seed))
	if err := writeTrace(base+".trace.json", res, rep); err != nil {
		return nil, err
	}
	if err := writeSummary(base+".layers.json", rpt, l); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: trace %s.trace.json, per-layer summary %s.layers.json\n", base, base)

	failed := plain.failed + res.failed + end.Failed + int(plain.elections+res.elections)
	out := &result{Correct: failed == 0, Attempted: plain.steps + res.steps, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range headline {
		m, ok := l[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s has no samples on %s", name, p.Workload)
		}
		out.Metrics[name] = metric{m.Value, m.Unit}
	}
	return out, nil
}

// perLayer computes every per-layer metric that applies to the workload.
func perLayer(p *Plan, plain, res *httpResult, rep *replayResult, lc layerCounts, walBytes uint64) layers {
	l := layers{}
	steps := uint64(res.steps)
	mutations := uint64(0)
	for k, n := range res.ops {
		if k != OpRead {
			mutations += uint64(n)
		}
	}

	// minupd, from the traced HTTP pass and the server's own histograms.
	var opCount, opSum, allCount uint64
	for name := range res.after.vars[0].Minup.Histograms {
		route, ok := strings.CutPrefix(name, "http.")
		if !ok {
			continue
		}
		route, ok = strings.CutSuffix(route, ".duration_us")
		if !ok {
			continue
		}
		c1, s1 := res.after.hist(name)
		c0, s0 := res.before.hist(name)
		if c1 == c0 {
			continue
		}
		l.ratio("minupd.handler_us."+route, s1-s0, c1-c0, "us")
		allCount += c1 - c0
		for _, r := range opRoutes(p.Workload) {
			if r == route {
				opCount += c1 - c0
				opSum += s1 - s0
			}
		}
	}
	l.ratio("minupd.handler_us", opSum, opCount, "us")
	if h, ok := l["minupd.handler_us"]; ok {
		var sum int64
		for _, ns := range res.opNS {
			sum += ns
		}
		l.set("minupd.client_gap_us", float64(sum)/float64(len(res.opNS))/1e3-h.Value, "us", len(res.opNS))
	}
	l.ratio("minupd.resp_bytes_per_op", uint64(res.respBytes), steps, "B")
	l.ratio("minupd.log_bytes_per_op", uint64(res.after.log-res.before.log), steps, "B")
	l.ratio("minupd.shed_ratio", res.after.counter("http.shed")-res.before.counter("http.shed"), allCount, "ratio")

	// catalog, from the in-process replay.
	t := rep.timer
	l.p50us("catalog.serve_us", t.durs["catalog.serve"])
	l.p50us("catalog.miss_us", t.durs["catalog.miss"])
	l.p50us("catalog.mutate_us", t.durs["catalog.mutate"])
	l.p50us("catalog.put_wait_us", t.durs["catalog.put_wait"])
	l.p50us("catalog.refresh_lag_us", t.durs["catalog.refresh_lag"])
	l.p50us("catalog.compact_us", rep.compactNS)
	c := rep.counters()
	l.ratio("catalog.cache_hit_ratio", c["catalog.cache_hits"], c["catalog.cache_hits"]+c["catalog.cache_misses"], "ratio")
	l.ratio("catalog.repair_fallback_ratio", c["catalog.repair_fallbacks"], c["catalog.repairs"], "ratio")
	l.ratio("catalog.solves_per_version", c["solve.cold"]+c["catalog.repairs"]+c["catalog.refresh.solves"], uint64(rep.versions), "ratio")
	l.ratio("catalog.refresh_stale_ratio", c["catalog.refresh.stale"], c["catalog.refresh.enqueued"], "ratio")
	l.ratio("catalog.compiles_per_op", c["catalog.compiles"], uint64(rep.ops), "ratio")
	l.ratio("catalog.compactions_per_kop", 1000*c["catalog.snapshots"], uint64(rep.ops), "count")

	// wal, from the captured records.
	l.p50us("wal.append_us", t.durs["wal.append"])
	l.p50us("wal.fsync_us", t.durs["wal.fsync"])
	l.ratio("wal.bytes_per_op", walBytes, uint64(rep.ops), "B")
	if p.Workload != "hot_read" {
		if f, ok := l["wal.fsync_us"]; ok {
			l.set("wal.fsync_share", f.Value/(percentile(res.opNS, 0.5)/1e3), "ratio", len(res.opNS))
		}
	}

	// constraint, core, lattice and frontend, from the sub-layer replay.
	l.p50us("constraint.parse_us", t.durs["constraint.parse"])
	l.ratio("constraint.parse_allocs", lc.parseAllocs, lc.parses, "count")
	l.p50us("constraint.compile_us", t.durs["constraint.compile"])
	l.ratio("constraint.size", lc.size, lc.compiles, "count")
	l.ratio("constraint.sccs", lc.sccs, lc.compiles, "count")
	l.p50us("core.check_us", t.durs["core.check"])
	l.p50us("core.solve_us", t.durs["core.solve"])
	l.ratio("core.allocs_per_solve", lc.solveAllocs, lc.solves, "count")
	l.ratio("core.try_steps_per_solve", lc.trySteps, lc.solves, "count")
	l.ratio("core.descent_steps_per_solve", lc.descentSteps, lc.solves, "count")
	l.p50us("core.repair_us", t.durs["core.repair"])
	l.ratio("lattice.ops_per_solve", lc.latticeOps, lc.solves, "count")
	l.p50us("frontend.compile_us", t.durs["frontend.compile"])

	// cluster: the barrier from the replay, the rest from the HTTP pass.
	if p.Nodes > 1 {
		l.p50us("cluster.barrier_us", t.durs["cluster.Barrier"])
		l.ratio("cluster.appends_per_op", res.after.counter("cluster.appends_sent")-res.before.counter("cluster.appends_sent"), mutations, "count")
		l.ratio("cluster.follower_polls_per_fresh", uint64(res.polls), mutations, "count")
		l["cluster.elections"] = layerMetric{Value: float64(res.elections), Unit: "count", N: int(mutations)}
	}

	// Tracing overhead: ops_s lost between the untraced and traced pass.
	plainRate := float64(plain.steps) / plain.elapsed.Seconds()
	tracedRate := float64(res.steps) / res.elapsed.Seconds()
	l.set("trace.overhead_ratio", 1-tracedRate/plainRate, "ratio", res.steps)
	return l
}

// counters sums the replay's catalog counters over its registries.
func (r *replayResult) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, reg := range r.regs {
		for k, v := range reg.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// writeTrace writes the traced HTTP pass's client spans and the replay's
// sampled spans as one Perfetto-loadable Chrome trace.
func writeTrace(path string, res *httpResult, rep *replayResult) error {
	var roots []*obs.Span
	if res.clientSpanParent != nil {
		roots = append(roots, res.clientSpanParent)
	}
	roots = append(roots, rep.timer.roots()...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, roots...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSummary writes the report and every per-layer metric, sorted by
// name, as JSON.
func writeSummary(path string, rpt report, l layers) error {
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	type row struct {
		Name string `json:"name"`
		layerMetric
	}
	rows := make([]row, len(names))
	for i, n := range names {
		rows[i] = row{n, l[n]}
	}
	b, err := json.MarshalIndent(struct {
		Report report `json:"report"`
		Layers []row  `json:"layers"`
	}{rpt, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
