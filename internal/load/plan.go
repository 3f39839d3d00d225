// Package load is the staged load-test harness behind cmd/minload: a plan
// of stages (ramp → storm → soak, plus chaos stages that arm server-side
// fault injection), each driving a mixed workload — catalog mutations from
// seeded workload.MutationStreams, policy solves, policy traces, and
// problem-frontend creates — from many concurrent clients against a running
// minupd.
//
// Each stage records client-side latency histograms (obs.Histogram) and
// success/degraded/shed/error counts, decodes the server's registry
// snapshot (GET /metrics, an obs.Snapshot) between stages to capture
// counter deltas and SLO burn gauges, and is judged by per-stage
// gates: minimum success rate, maximum error/shed/degraded rates, maximum
// client-side p99, and a maximum server-side availability burn rate. The
// per-stage results are written as JSON into a result directory, and any
// failed gate fails the run — the shape that answers the ROADMAP's "what
// QPS does minupd sustain at p99 < X ms before shedding?".
//
// Plans are data (JSON-serializable), so CI runs a short ramp+storm plan
// while EXPERIMENTS.md describes full soak and load-under-chaos recipes
// over the same machinery.
package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"minup/internal/workload"
)

// Mix weighs the request kinds a stage's clients draw from. Weights are
// relative, not normalized; a zero weight disables the kind.
type Mix struct {
	// Mutate applies the next catalog mutation from the client's seeded
	// MutationStream (policy put / constraint append / delete).
	Mutate float64 `json:"mutate"`
	// CachedSolve asks for a policy the client already created — the
	// memoized serve path, the hot path at scale. A read that lands before
	// the refresh of the policy's latest version runs the cold solve.
	CachedSolve float64 `json:"cached_solve"`
	// Trace requests a fully instrumented solve of a policy the client
	// already created (/policies/{name}/trace), the most expensive read.
	Trace float64 `json:"trace"`
	// Problem posts a seeded problem-frontend instance (alternating
	// suppress / depinf) to /problems/{family}, exercising the
	// parse-compile-store path with instance geometries the mutation
	// stream never produces.
	Problem float64 `json:"problem,omitempty"`
}

func (m Mix) total() float64 { return m.Mutate + m.CachedSolve + m.Trace + m.Problem }

// Gates are a stage's pass/fail thresholds. The zero value of each field
// disables that gate, so a plan only pays for the checks it declares; use
// a small epsilon (e.g. 0.0001) to demand a strictly-zero rate.
type Gates struct {
	// MinSuccessRate is the minimum fraction of attempts answered with a
	// non-degraded 2xx.
	MinSuccessRate float64 `json:"min_success_rate,omitempty"`
	// MaxErrorRate caps the fraction of attempts that failed outright:
	// transport errors, timeouts, and non-2xx statuses other than 503
	// sheds. Sheds and degraded answers are correct overload behavior and
	// are gated separately.
	MaxErrorRate float64 `json:"max_error_rate,omitempty"`
	// MaxShedRate caps the fraction of attempts shed with 503.
	MaxShedRate float64 `json:"max_shed_rate,omitempty"`
	// MaxDegradedRate caps the fraction of attempts answered by the Qian
	// baseline instead of a minimal solve.
	MaxDegradedRate float64 `json:"max_degraded_rate,omitempty"`
	// MaxP99MS caps the client-observed p99 latency in milliseconds.
	MaxP99MS float64 `json:"max_p99_ms,omitempty"`
	// MaxAvailBurn5m caps the server's worst per-route 5-minute
	// availability burn rate (scraped slo.<route>.avail_burn_5m_milli /
	// 1000; 1.0 burns the error budget exactly at its sustainable rate).
	MaxAvailBurn5m float64 `json:"max_avail_burn_5m,omitempty"`
}

// Stage is one phase of a load plan.
type Stage struct {
	Name string `json:"name"`
	// Kind is ramp, storm, soak, or chaos. Only ramp changes engine
	// behavior (QPS climbs linearly from RampFromQPS to QPS); the rest are
	// descriptive, with chaos stages conventionally carrying a Fault spec.
	Kind string `json:"kind"`
	// Seconds is the stage duration.
	Seconds float64 `json:"seconds"`
	// Clients is the number of concurrent client goroutines.
	Clients int `json:"clients"`
	// QPS is the stage's target aggregate request rate; 0 leaves the
	// clients unthrottled (storm).
	QPS float64 `json:"qps,omitempty"`
	// RampFromQPS is the starting rate of a ramp stage (defaults to
	// QPS/10).
	RampFromQPS float64 `json:"ramp_from_qps,omitempty"`
	Mix         Mix     `json:"mix"`
	// Fault is a server-side fault spec (internal/fault's ParseSpec
	// grammar) armed over the debug listener's /debug/fault for the
	// duration of the stage and disarmed after — minupd must run with
	// -fault-admin. Empty leaves the injector alone.
	Fault string `json:"fault,omitempty"`
	Gates Gates  `json:"gates"`
}

func (s Stage) duration() time.Duration { return time.Duration(s.Seconds * float64(time.Second)) }

// Plan is a full load run: an RNG seed (the whole run is deterministic on
// the client side given one seed), the per-client mutation workload shape,
// and the stage sequence.
type Plan struct {
	Seed int64 `json:"seed"`
	// Workload shapes each client's MutationStream. Seed and NamePrefix
	// are owned by the runner (per-client), so only the shape fields
	// matter here; zero fields take defaults (see DefaultWorkload).
	Workload workload.MutationSpec `json:"workload"`
	Stages   []Stage               `json:"stages"`
}

// DefaultWorkload is the mutation-stream shape used when a plan leaves
// Workload zero: modest policies with a put-heavy mix so cached solves
// always have live targets.
func DefaultWorkload() workload.MutationSpec {
	return workload.MutationSpec{
		NumPolicies:      8,
		NumMutations:     512,
		PutFraction:      0.3,
		DeleteFraction:   0.05,
		AttrsPerPolicy:   6,
		ConsPerPut:       4,
		ConsPerAppend:    2,
		LevelRHSFraction: 0.4,
		NewAttrFraction:  0.05,
	}
}

// DefaultMix is the standard request mix: mostly policy solves (the hot
// path at scale), a steady mutation trickle, a few traces, and a thin
// stream of problem-frontend creates.
func DefaultMix() Mix {
	return Mix{Mutate: 0.15, CachedSolve: 0.75, Trace: 0.05, Problem: 0.05}
}

// DefaultPlan is the canonical staged run: ramp to find the knee, storm to
// prove overload behavior stays typed (shed/degrade, not errors), soak for
// sustained-rate health, and a chaos stage that slows solver steps and WAL
// fsyncs under live traffic. Stage seconds are sized for a local run;
// cmd/minload's -stage-seconds scales them down for CI smoke.
func DefaultPlan() Plan {
	mix := DefaultMix()
	return Plan{
		Seed:     1,
		Workload: DefaultWorkload(),
		Stages: []Stage{
			{
				Name: "ramp", Kind: "ramp", Seconds: 20, Clients: 8,
				QPS: 300, RampFromQPS: 20, Mix: mix,
				// The burn gate rides on the first stage: its 5-minute
				// window is still clean, while later stages would see the
				// storm's deliberate degrading in theirs.
				Gates: Gates{MinSuccessRate: 0.97, MaxErrorRate: 0.01, MaxP99MS: 250, MaxAvailBurn5m: 50},
			},
			{
				Name: "storm", Kind: "storm", Seconds: 15, Clients: 32,
				Mix: mix,
				// Under an unthrottled storm the right behavior is typed
				// overload handling: shed or degrade freely, never error.
				Gates: Gates{MaxErrorRate: 0.02},
			},
			{
				Name: "soak", Kind: "soak", Seconds: 120, Clients: 8,
				QPS: 150, Mix: mix,
				Gates: Gates{MinSuccessRate: 0.97, MaxErrorRate: 0.01, MaxP99MS: 250},
			},
			{
				Name: "chaos", Kind: "chaos", Seconds: 30, Clients: 8,
				QPS: 100, Mix: mix,
				Fault: "solve.step:delay:~0.02:2ms;wal.fsync:delay:~0.05:5ms",
				Gates: Gates{MinSuccessRate: 0.80, MaxErrorRate: 0.02},
			},
		},
	}
}

// Validate checks a plan is runnable and fills workload defaults.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("load: plan has no stages")
	}
	if p.Workload.NumPolicies == 0 && p.Workload.NumMutations == 0 {
		p.Workload = DefaultWorkload()
	}
	seen := make(map[string]bool, len(p.Stages))
	for i := range p.Stages {
		st := &p.Stages[i]
		if st.Name == "" {
			return fmt.Errorf("load: stage %d has no name", i)
		}
		if seen[st.Name] {
			return fmt.Errorf("load: duplicate stage name %q", st.Name)
		}
		seen[st.Name] = true
		if st.Seconds <= 0 {
			return fmt.Errorf("load: stage %q: non-positive duration", st.Name)
		}
		if st.Clients <= 0 {
			return fmt.Errorf("load: stage %q: needs at least one client", st.Name)
		}
		if st.Mix.total() <= 0 {
			return fmt.Errorf("load: stage %q: empty request mix", st.Name)
		}
		if st.Kind == "ramp" && st.QPS <= 0 {
			return fmt.Errorf("load: stage %q: a ramp stage needs a target QPS", st.Name)
		}
		if st.RampFromQPS == 0 && st.Kind == "ramp" {
			st.RampFromQPS = st.QPS / 10
		}
	}
	return nil
}

// Filter returns a copy of the plan keeping only the named stages (comma
// list), in plan order. An unknown name is an error, so a typoed CI
// invocation cannot silently run zero stages.
func (p Plan) Filter(names string) (Plan, error) {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	out := p
	out.Stages = nil
	for _, st := range p.Stages {
		if want[st.Name] {
			out.Stages = append(out.Stages, st)
			delete(want, st.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		return Plan{}, fmt.Errorf("load: unknown stage(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// ReadPlan decodes a JSON plan, rejecting unknown fields so a typoed gate
// name fails the run instead of silently not gating.
func ReadPlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("load: decoding plan: %w", err)
	}
	return p, nil
}

// ReadPlanFile is ReadPlan over a file path.
func ReadPlanFile(path string) (Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return Plan{}, err
	}
	defer f.Close()
	return ReadPlan(f)
}
