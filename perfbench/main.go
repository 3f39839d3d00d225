// Command perfbench is minup's end-to-end benchmark. It builds nothing
// itself (perfbench/run.sh builds cmd/minupd and this command first), starts
// minupd on loopback — one node, or three for the cluster workload —
// replays a fixed op sequence made from --seed against it in a closed
// loop, checks every answer and the end state, and prints the end-to-end
// metrics as the last line of its output:
//
//	perfbench -minupd bin/minupd -work dir --workload hot_read --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it instead runs the sequence twice over HTTP (untraced,
// then with client spans and minupd's counters read around the timed
// part) and replays it in-process against the catalog, cluster,
// constraint, core, lattice, frontend and wal packages with an obs span
// around every call, and prints the per-layer metrics. It writes a
// Perfetto-loadable trace and a per-layer summary next to the run
// directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

// setupRepeats is how many times an untraced run sets up from scratch;
// setup_s is the median.
const setupRepeats = 3

func run() int {
	binary := flag.String("minupd", "", "path to the minupd binary to benchmark")
	work := flag.String("work", ".bench_build/perfbench/runs", "directory for data directories, access logs and outputs")
	name := flag.String("workload", "", "workload: hot_read, write_fresh, cold_create or replicated_write")
	seed := flag.Int64("seed", 1, "seed of the generated op sequence")
	seconds := flag.Int("seconds", 10, "nominal measuring time; sets the fixed sequence length")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	w, ok := LookupWorkload(*name)
	if !ok || *binary == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -minupd, --workload (hot_read|write_fresh|cold_create|replicated_write), --seconds ≥ 1 and --trace 0|1")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-s%d-t%d-%d", w.Name, *seed, *trace, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping the servers\n", sig)
		live.stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	ref := referenceLoop()
	var out *result
	if *trace == 0 {
		out, err = untraced(*binary, dir, NewPlan(w, *seed, *seconds), ref)
	} else {
		// The traced run replays the first half of the untraced run's
		// sequence (a shorter plan from the same seed is a prefix of the
		// longer one): it makes every pass at least twice, so a full-length
		// replay would not end in time on a slowed host.
		out, err = traced(*binary, dir, filepath.Dir(dir), NewPlan(w, *seed, max(1, *seconds/2)), ref)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed before the result: the per-op-class names
// (read_p50_ms, write_p50_ms, create_p50_ms) for the gated medians, the
// step rate ops_s, every op class's whole-run median and tail with its
// sample count, the per-block figures, the checks and the machine
// diagnostics.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Steps       int                `json:"steps"`
	Latency     map[string]latency `json:"latency"`
	Aliases     map[string]metric  `json:"named"`
	End         endCheck           `json:"end_state"`
	StepErrors  []string           `json:"step_errors,omitempty"`
	Elections   uint64             `json:"elections_in_timed_part"`
	Blocks      blockStats         `json:"blocks"`
	Diagnostics diagnostics        `json:"diagnostics"`
}

// timing returns the timing figures of one HTTP pass: the block figures,
// or whole-run figures for a run shorter than half a block.
func timing(p *Plan, res *httpResult) blockStats {
	b := blockFigures(res, p.blockLen())
	if b.Blocks == 0 {
		steps := float64(res.steps)
		b = blockStats{
			OpP50MS:  percentile(res.opNS, 0.5) / 1e6,
			FreshP50: percentile(res.freshNS, 0.5) / 1e6,
			OpsS:     steps / res.elapsed.Seconds(),
			CPUPerOp: float64((res.after.cpu - res.before.cpu).Microseconds()) / steps,
		}
	}
	return b
}

// endToEnd computes the end-to-end metrics of one HTTP pass: the figures
// BENCHMARK.json bounds. The step rate (ops_s) is in the report instead:
// it is a mean over every step, so each stall of a vCPU the host gives to
// another tenant lowers it, where the medians stay put.
func endToEnd(p *Plan, res *httpResult) map[string]metric {
	steps := float64(res.steps)
	b := timing(p, res)
	return map[string]metric{
		"setup_s":         {medianDuration(res.setups).Seconds(), "s"},
		"op_p50_ms":       {b.OpP50MS, "ms"},
		"fresh_p50_ms":    {b.FreshP50, "ms"},
		"allocs_per_op":   {float64(res.after.mallocs()-res.before.mallocs()) / steps, "count"},
		"alloc_kb_per_op": {float64(res.after.allocBytes()-res.before.allocBytes()) / 1024 / steps, "KiB"},
		"cpu_us_per_op":   {b.CPUPerOp, "us"},
		"rss_mb":          {float64(res.hwm) / (1 << 20), "MiB"},
	}
}

// newReport assembles the human-facing report of one HTTP pass.
func newReport(p *Plan, res *httpResult, end endCheck, ref time.Duration) report {
	rep := report{
		Workload: p.Workload, Seed: p.Seed, Steps: res.steps,
		Latency:     map[string]latency{},
		Aliases:     map[string]metric{},
		End:         end,
		StepErrors:  res.errs,
		Elections:   res.elections,
		Diagnostics: newDiagnostics(p, res, ref),
	}
	var writes, creates []int64
	for k, ns := range res.opsByKindNS {
		switch {
		case k == OpRead:
		case p.Workload == "cold_create":
			creates = append(creates, ns...)
		default:
			writes = append(writes, ns...)
		}
	}
	if p.Workload == "hot_read" {
		rep.Latency["read"] = summarize(res.opNS)
	} else {
		rep.Latency["read_back"] = summarize(res.readNS)
		rep.Latency["fresh"] = summarize(res.freshNS)
	}
	if len(writes) > 0 {
		rep.Latency["write"] = summarize(writes)
	}
	if len(creates) > 0 {
		rep.Latency["create"] = summarize(creates)
	}
	for k, ns := range res.opsByKindNS {
		rep.Latency["op."+k.String()] = summarize(ns)
	}
	rep.Blocks = timing(p, res)
	// The per-op-class names for the gated medians, and the step rate.
	op := map[string]string{"hot_read": "read", "cold_create": "create"}[p.Workload]
	if op == "" {
		op = "write"
	}
	rep.Aliases[op+"_p50_ms"] = metric{rep.Blocks.OpP50MS, "ms"}
	rep.Aliases["fresh_p50_ms"] = metric{rep.Blocks.FreshP50, "ms"}
	rep.Aliases["ops_s"] = metric{rep.Blocks.OpsS, "1/s"}
	return rep
}

func printJSON(prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("perfbench: %s %s\n", prefix, b)
}

// untraced is a --trace 0 run: set-up setupRepeats times, the timed HTTP pass,
// the reference replay and the end-state check.
func untraced(binary, dir string, p *Plan, ref time.Duration) (*result, error) {
	res, err := runHTTP(binary, filepath.Join(dir, "http"), p, setupRepeats, nil)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(filepath.Join(dir, "http"))
	rr, err := referenceReplay(p)
	if err != nil {
		return nil, err
	}
	end := checkEnd(p, res.end, rr, res.clusterPrints)
	printJSON("report", newReport(p, res, end, ref))
	failed := res.failed + end.Failed + int(res.elections)
	return &result{
		Correct:   failed == 0,
		Attempted: res.steps,
		Failed:    failed,
		Metrics:   endToEnd(p, res),
	}, nil
}
