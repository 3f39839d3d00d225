// Command minload drives a staged load test against a running minupd and
// gates the result: ramp → storm → soak, plus chaos stages that arm the
// server's fault injector over its debug listener (minupd -fault-admin).
// Each stage mixes catalog mutations (seeded workload.MutationStreams),
// policy solves, policy traces, and problem-frontend creates across
// concurrent clients, records client-side latency histograms and outcome counts,
// decodes the server's metrics registry snapshot (GET /metrics) between
// stages, and writes per-stage JSON plus a summary into the result
// directory. Any failed stage gate exits nonzero.
//
// Usage:
//
//	minupd -fault-admin &                          # the target
//	minload                                        # full default plan
//	minload -stages ramp,storm -stage-seconds 10   # CI smoke
//	minload -plan plan.json -out artifacts/load    # custom plan
//
// The default plan (printable via -print-plan) answers the ROADMAP's
// capacity question — ramp to find the knee, storm to prove overload stays
// typed (shed/degrade, not errors), soak for sustained health, chaos for
// health under injected faults. -stage-seconds rescales every stage's
// duration for quick runs; -seed replays a run's client-side decisions
// exactly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"minup/internal/load"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the minupd under test; a comma-separated list targets a cluster (reads spread across members, writes follow 307 leader redirects)")
	debugAddr := flag.String("debug-addr", "http://127.0.0.1:6060", "base URL of minupd's debug listener (fault arming); empty disables chaos stages")
	out := flag.String("out", "loadout", "result directory for per-stage JSON and summary.json; empty writes nothing")
	planPath := flag.String("plan", "", "JSON plan file (default: the built-in staged plan)")
	stages := flag.String("stages", "", "comma-separated stage names to run (default: all)")
	stageSeconds := flag.Float64("stage-seconds", 0, "override every stage's duration in seconds (0 keeps plan durations)")
	clients := flag.Int("clients", 0, "override every stage's client count (0 keeps plan values)")
	seed := flag.Int64("seed", 0, "override the plan seed (0 keeps the plan's)")
	printPlan := flag.Bool("print-plan", false, "print the effective plan as JSON and exit")
	quiet := flag.Bool("quiet", false, "suppress per-stage progress lines")
	flag.Parse()

	plan := load.DefaultPlan()
	if *planPath != "" {
		var err error
		plan, err = load.ReadPlanFile(*planPath)
		if err != nil {
			fatal(err)
		}
	}
	if *stages != "" {
		var err error
		plan, err = plan.Filter(*stages)
		if err != nil {
			fatal(err)
		}
	}
	if *seed != 0 {
		plan.Seed = *seed
	}
	for i := range plan.Stages {
		if *stageSeconds > 0 {
			plan.Stages[i].Seconds = *stageSeconds
		}
		if *clients > 0 {
			plan.Stages[i].Clients = *clients
		}
	}
	if err := plan.Validate(); err != nil {
		fatal(err)
	}
	if *printPlan {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fatal(err)
		}
		return
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("-addr: no target address"))
	}
	runner := &load.Runner{
		BaseURL:  addrs[0],
		Addrs:    addrs,
		DebugURL: *debugAddr,
		OutDir:   *out,
	}
	if !*quiet {
		runner.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "minload: "+format+"\n", args...)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := runner.Run(ctx, plan)
	if err != nil {
		fatal(err)
	}
	for i := range report.Stages {
		st := &report.Stages[i]
		verdict := "PASS"
		if !st.GatePassed {
			verdict = "FAIL"
		}
		fmt.Printf("%-8s %s  attempts=%d rps=%.0f success=%.2f%% degraded=%.2f%% shed=%.2f%% errors=%.2f%% p99=%.1fms\n",
			st.Name, verdict, st.Total.Attempts, st.ThroughputRPS,
			100*st.Total.SuccessRate(), 100*st.Total.DegradedRate(),
			100*st.Total.ShedRate(), 100*st.Total.ErrorRate(), st.Latency.P99MS)
		for _, reason := range st.GateFailures {
			fmt.Printf("         gate: %s\n", reason)
		}
	}
	if *out != "" {
		fmt.Printf("results: %s\n", *out)
	}
	if !report.Passed {
		fmt.Printf("FAIL: stage gates failed: %v\n", report.FailedStages())
		os.Exit(1)
	}
	fmt.Println("PASS")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "minload: %v\n", err)
	os.Exit(1)
}
