package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"minup/internal/obs"
)

// Counts is the outcome tally of a set of requests.
type Counts struct {
	Attempts uint64 `json:"attempts"`
	// Success is non-degraded 2xx answers.
	Success uint64 `json:"success"`
	// Degraded is 2xx answers served by the Qian fallback.
	Degraded uint64 `json:"degraded"`
	// Shed is 503 refusals from the admission gate.
	Shed uint64 `json:"shed"`
	// Errors is transport failures, timeouts, and unexpected statuses.
	Errors uint64 `json:"errors"`
	// Redirects counts 307 leader-redirect hops followed (cluster mode);
	// the redirected attempt itself is tallied once under its final
	// outcome.
	Redirects uint64 `json:"redirects,omitempty"`
}

func (c Counts) rate(n uint64) float64 {
	if c.Attempts == 0 {
		return 0
	}
	return float64(n) / float64(c.Attempts)
}

// SuccessRate is the fraction of attempts answered with a non-degraded 2xx.
func (c Counts) SuccessRate() float64 { return c.rate(c.Success) }

// ErrorRate is the fraction of attempts that failed outright.
func (c Counts) ErrorRate() float64 { return c.rate(c.Errors) }

// ShedRate is the fraction of attempts shed with 503.
func (c Counts) ShedRate() float64 { return c.rate(c.Shed) }

// DegradedRate is the fraction of attempts answered degraded.
func (c Counts) DegradedRate() float64 { return c.rate(c.Degraded) }

// LatencySummary is the client-observed latency of a request set, in
// milliseconds, derived from an obs.Histogram over microsecond buckets.
// Quantiles are bucket upper bounds, so they round up to the bucket grid.
type LatencySummary struct {
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms,omitempty"`
	MeanMS float64 `json:"mean_ms"`
}

func latencySummary(s obs.HistogramSnapshot, maxUS uint64) LatencySummary {
	ms := func(us uint64) float64 { return float64(us) / 1000 }
	out := LatencySummary{
		P50MS: ms(s.Quantile(0.50)),
		P90MS: ms(s.Quantile(0.90)),
		P99MS: ms(s.Quantile(0.99)),
		MaxMS: ms(maxUS),
	}
	if s.Count > 0 {
		out.MeanMS = ms(s.Sum) / float64(s.Count)
	}
	return out
}

// OpResult is one request kind's slice of a stage.
type OpResult struct {
	Counts  Counts         `json:"counts"`
	Latency LatencySummary `json:"latency"`
}

// ServerSample is what the between-stage metrics scrapes say the server did
// during a stage: deltas of every counter that moved, plus the current SLO
// burn-rate and runtime gauges. Keys are registry names.
type ServerSample struct {
	// CounterDeltas maps counter name to its increase across the stage;
	// zero-delta counters are omitted.
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
	// Gauges holds the post-stage values of the slo.*, runtime.*, and
	// process.* gauges.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// MaxAvailBurn5m is the worst per-route slo.<route>.avail_burn_5m_milli,
	// rescaled to a plain burn rate (1.0 = burning budget exactly at the
	// sustainable rate).
	MaxAvailBurn5m float64 `json:"max_avail_burn_5m"`
}

// serverSample diffs two registry snapshots: counters by their change,
// gauges at their after-value.
func serverSample(before, after *obs.Snapshot) *ServerSample {
	s := &ServerSample{
		CounterDeltas: make(map[string]int64),
		Gauges:        make(map[string]int64),
	}
	for n, v := range after.Counters {
		// A restarted server's counters fall; the conversion keeps the
		// difference signed.
		if d := int64(v - before.Counters[n]); d != 0 {
			s.CounterDeltas[n] = d
		}
	}
	for n, v := range after.Gauges {
		if strings.HasPrefix(n, "slo.") || strings.HasPrefix(n, "runtime.") || strings.HasPrefix(n, "process.") {
			s.Gauges[n] = v
		}
		if strings.HasPrefix(n, "slo.") && strings.HasSuffix(n, ".avail_burn_5m_milli") {
			if burn := float64(v) / 1000; burn > s.MaxAvailBurn5m {
				s.MaxAvailBurn5m = burn
			}
		}
	}
	if len(s.CounterDeltas) == 0 {
		s.CounterDeltas = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	return s
}

// StageResult is one stage's full outcome: client-side tallies and latency,
// the server-side sample, and the gate verdict.
type StageResult struct {
	Name            string              `json:"name"`
	Kind            string              `json:"kind"`
	Fault           string              `json:"fault,omitempty"`
	Clients         int                 `json:"clients"`
	TargetQPS       float64             `json:"target_qps,omitempty"`
	StartedAt       time.Time           `json:"started_at"`
	DurationSeconds float64             `json:"duration_seconds"`
	Total           Counts              `json:"total"`
	PerOp           map[string]OpResult `json:"per_op,omitempty"`
	ThroughputRPS   float64             `json:"throughput_rps"`
	Latency         LatencySummary      `json:"latency"`
	Server          *ServerSample       `json:"server,omitempty"`
	Gates           Gates               `json:"gates"`
	GatePassed      bool                `json:"gate_passed"`
	GateFailures    []string            `json:"gate_failures,omitempty"`

	// scrapedAfter carries the post-stage snapshot to the next stage as
	// its baseline; not serialized.
	scrapedAfter *obs.Snapshot
}

func (r *StageResult) summaryLine() string {
	verdict := "PASS"
	if !r.GatePassed {
		verdict = "FAIL (" + strings.Join(r.GateFailures, "; ") + ")"
	}
	return fmt.Sprintf(
		"%d attempts @ %.0f rps, success %.1f%%, degraded %.1f%%, shed %.1f%%, errors %.1f%%, p99 %.1fms — %s",
		r.Total.Attempts, r.ThroughputRPS,
		100*r.Total.SuccessRate(), 100*r.Total.DegradedRate(),
		100*r.Total.ShedRate(), 100*r.Total.ErrorRate(),
		r.Latency.P99MS, verdict)
}

// Evaluate judges a stage result against its gates, returning one
// human-readable reason per failed gate (empty means pass). A stage that
// made no requests at all fails unconditionally: silence is not health.
func (g Gates) Evaluate(r *StageResult) []string {
	var fails []string
	if r.Total.Attempts == 0 {
		return []string{"stage made no requests"}
	}
	if g.MinSuccessRate > 0 && r.Total.SuccessRate() < g.MinSuccessRate {
		fails = append(fails, fmt.Sprintf("success rate %.4f < min %.4f", r.Total.SuccessRate(), g.MinSuccessRate))
	}
	if g.MaxErrorRate > 0 && r.Total.ErrorRate() > g.MaxErrorRate {
		fails = append(fails, fmt.Sprintf("error rate %.4f > max %.4f", r.Total.ErrorRate(), g.MaxErrorRate))
	}
	if g.MaxShedRate > 0 && r.Total.ShedRate() > g.MaxShedRate {
		fails = append(fails, fmt.Sprintf("shed rate %.4f > max %.4f", r.Total.ShedRate(), g.MaxShedRate))
	}
	if g.MaxDegradedRate > 0 && r.Total.DegradedRate() > g.MaxDegradedRate {
		fails = append(fails, fmt.Sprintf("degraded rate %.4f > max %.4f", r.Total.DegradedRate(), g.MaxDegradedRate))
	}
	if g.MaxP99MS > 0 && r.Latency.P99MS > g.MaxP99MS {
		fails = append(fails, fmt.Sprintf("p99 %.1fms > max %.1fms", r.Latency.P99MS, g.MaxP99MS))
	}
	if g.MaxAvailBurn5m > 0 {
		if r.Server == nil {
			fails = append(fails, "burn-rate gate set but server metrics were not scraped")
		} else if r.Server.MaxAvailBurn5m > g.MaxAvailBurn5m {
			fails = append(fails, fmt.Sprintf("avail burn (5m) %.2f > max %.2f", r.Server.MaxAvailBurn5m, g.MaxAvailBurn5m))
		}
	}
	return fails
}

// Report is a full run's outcome.
type Report struct {
	Plan            Plan              `json:"plan"`
	Target          string            `json:"target"`
	BuildInfo       map[string]string `json:"build_info,omitempty"`
	StartedAt       time.Time         `json:"started_at"`
	DurationSeconds float64           `json:"duration_seconds"`
	Stages          []StageResult     `json:"stages"`
	// Passed is true iff every stage's gates passed.
	Passed bool `json:"passed"`
}

// FailedStages names the stages whose gates failed, in run order.
func (r *Report) FailedStages() []string {
	var out []string
	for i := range r.Stages {
		if !r.Stages[i].GatePassed {
			out = append(out, r.Stages[i].Name)
		}
	}
	return out
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeStageFile emits stage-NN-<name>.json into the result dir.
func writeStageFile(dir string, index int, res *StageResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, fmt.Sprintf("stage-%02d-%s.json", index, res.Name)), res)
}

// writeSummaryFile emits summary.json into the result dir.
func writeSummaryFile(dir string, rep *Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "summary.json"), rep)
}
