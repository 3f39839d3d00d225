// SLO tracking: per-route objectives (p99 latency, availability) and
// multi-window burn rates over bucketed circular time windows. A burn rate
// of 1.0 means the route is consuming its error budget exactly as fast as
// the objective allows; sustained rates above ~1 on the short window are
// the page-worthy signal (the classic 5m/1h multi-window alert pair).
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO window geometry: 10-second buckets, enough of them to cover the long
// (1h) window plus one spare so a partially filled current bucket never
// aliases the oldest one.
const (
	sloBucketSeconds = 10
	sloBucketCount   = 3600/sloBucketSeconds + 1
	sloShortWindow   = 5 * time.Minute
	sloLongWindow    = time.Hour
	// sloLatencyBudget is the slow-request budget implied by a p99 target:
	// 1% of requests may exceed it.
	sloLatencyBudget = 0.01
)

// SLOSpec is one route's objectives. Zero fields disable that objective.
type SLOSpec struct {
	Route string `json:"route"`
	// P99 is the latency target: at most 1% of requests may take longer.
	P99 time.Duration `json:"p99_us"`
	// Availability is the success-fraction target in (0,1), e.g. 0.999.
	Availability float64 `json:"availability"`
}

// ParseSLOSpecs parses the -slo flag grammar: semicolon-separated
// "route:key=value,key=value" entries with keys p99 (a Go duration) and
// avail (a percentage, e.g. 99.9). Each route appears in one entry, which
// carries all of its objectives, each at most once.
//
//	solve:p99=100ms,avail=99.9;policy.solve:p99=50ms,avail=99.99
func ParseSLOSpecs(s string) ([]SLOSpec, error) {
	var specs []SLOSpec
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		route, rest, ok := strings.Cut(entry, ":")
		if !ok || route == "" {
			return nil, fmt.Errorf("obs: SLO entry %q: want route:key=value,...", entry)
		}
		for _, prev := range specs {
			if prev.Route == route {
				return nil, fmt.Errorf("obs: SLO route %q appears twice; list all its objectives in one entry", route)
			}
		}
		spec := SLOSpec{Route: route}
		var seen []string
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("obs: SLO entry %q: bad objective %q", entry, kv)
			}
			if slices.Contains(seen, key) {
				return nil, fmt.Errorf("obs: SLO entry %q: objective %q appears twice", entry, key)
			}
			seen = append(seen, key)
			switch key {
			case "p99":
				d, err := time.ParseDuration(val)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("obs: SLO entry %q: bad p99 %q", entry, val)
				}
				spec.P99 = d
			case "avail":
				pct, err := strconv.ParseFloat(val, 64)
				if err != nil || pct <= 0 || pct >= 100 {
					return nil, fmt.Errorf("obs: SLO entry %q: avail wants a percentage in (0,100), got %q", entry, val)
				}
				spec.Availability = pct / 100
			default:
				return nil, fmt.Errorf("obs: SLO entry %q: unknown objective %q (want p99 or avail)", entry, key)
			}
		}
		if spec.P99 == 0 && spec.Availability == 0 {
			return nil, fmt.Errorf("obs: SLO entry %q: no objectives", entry)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// sloBucket is one 10-second slice of a route's traffic. epoch identifies
// which wall-clock slice the bucket currently holds; a bucket whose epoch
// has lapped is reset before reuse.
type sloBucket struct {
	epoch int64
	total uint64
	bad   uint64
	slow  uint64
}

type routeSLO struct {
	spec    SLOSpec
	buckets [sloBucketCount]sloBucket
}

// SLOTracker records per-route request outcomes and computes burn rates.
// Construct with NewSLOTracker; safe for concurrent use. Routes without a
// spec are ignored at record time, so the hot path for untracked routes is
// one map lookup.
type SLOTracker struct {
	// Now replaces time.Now for bucket assignment (tests).
	Now func() time.Time

	mu     sync.Mutex
	routes map[string]*routeSLO
	order  []string
}

// NewSLOTracker builds a tracker for the given objectives.
func NewSLOTracker(specs ...SLOSpec) *SLOTracker {
	t := &SLOTracker{routes: make(map[string]*routeSLO, len(specs))}
	for _, spec := range specs {
		if _, dup := t.routes[spec.Route]; dup {
			continue
		}
		t.routes[spec.Route] = &routeSLO{spec: spec}
		t.order = append(t.order, spec.Route)
	}
	sort.Strings(t.order)
	return t
}

func (t *SLOTracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Record counts one request against its route's objectives: bad burns the
// availability budget, a duration past the p99 target burns the latency
// budget. A nil tracker or an untracked route is a cheap no-op.
func (t *SLOTracker) Record(route string, dur time.Duration, bad bool) {
	if t == nil {
		return
	}
	epoch := t.now().Unix() / sloBucketSeconds
	t.mu.Lock()
	rs := t.routes[route]
	if rs == nil {
		t.mu.Unlock()
		return
	}
	b := &rs.buckets[epoch%sloBucketCount]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	b.total++
	if bad {
		b.bad++
	}
	if rs.spec.P99 > 0 && dur > rs.spec.P99 {
		b.slow++
	}
	t.mu.Unlock()
}

// SLOStatus is one route's burn-rate readout across both windows.
type SLOStatus struct {
	Route        string  `json:"route"`
	P99TargetUS  uint64  `json:"p99_target_us,omitempty"`
	Availability float64 `json:"availability,omitempty"`

	Requests5m uint64 `json:"requests_5m"`
	Requests1h uint64 `json:"requests_1h"`

	// AvailBurn* is (bad fraction)/(1 - availability target); 1.0 burns
	// the availability budget exactly at the sustainable rate.
	AvailBurn5m float64 `json:"avail_burn_5m"`
	AvailBurn1h float64 `json:"avail_burn_1h"`
	// LatencyBurn* is (slow fraction)/1%: the p99 objective's budget.
	LatencyBurn5m float64 `json:"latency_burn_5m"`
	LatencyBurn1h float64 `json:"latency_burn_1h"`
}

// Status computes every route's burn rates, sorted by route name.
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	nowEpoch := t.now().Unix() / sloBucketSeconds
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, 0, len(t.order))
	for _, route := range t.order {
		rs := t.routes[route]
		st := SLOStatus{
			Route:        route,
			P99TargetUS:  uint64(rs.spec.P99.Microseconds()),
			Availability: rs.spec.Availability,
		}
		shortT, shortBad, shortSlow := windowSums(rs, nowEpoch, int64(sloShortWindow/(sloBucketSeconds*time.Second)))
		longT, longBad, longSlow := windowSums(rs, nowEpoch, int64(sloLongWindow/(sloBucketSeconds*time.Second)))
		st.Requests5m, st.Requests1h = shortT, longT
		if rs.spec.Availability > 0 {
			budget := 1 - rs.spec.Availability
			st.AvailBurn5m = burnRate(shortBad, shortT, budget)
			st.AvailBurn1h = burnRate(longBad, longT, budget)
		}
		if rs.spec.P99 > 0 {
			st.LatencyBurn5m = burnRate(shortSlow, shortT, sloLatencyBudget)
			st.LatencyBurn1h = burnRate(longSlow, longT, sloLatencyBudget)
		}
		out = append(out, st)
	}
	return out
}

// windowSums totals the buckets of the last n epochs (including the
// current, possibly partial, one). Caller holds t.mu.
func windowSums(rs *routeSLO, nowEpoch, n int64) (total, bad, slow uint64) {
	for i := range rs.buckets {
		b := &rs.buckets[i]
		if b.epoch > nowEpoch-n && b.epoch <= nowEpoch {
			total += b.total
			bad += b.bad
			slow += b.slow
		}
	}
	return
}

// burnRate is (bad/total)/budget, 0 on an empty window.
func burnRate(bad, total uint64, budget float64) float64 {
	if total == 0 || budget <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / budget
}

// Publish writes every route's burn rates into reg as gauges in milli-units
// (the registry's gauges are integers): slo.<route>.avail_burn_5m_milli and
// friends. Registered routes publish even at zero, so a scrape sees the
// series before the first failure.
func (t *SLOTracker) Publish(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	for _, st := range t.Status() {
		prefix := "slo." + st.Route + "."
		if st.Availability > 0 {
			reg.Gauge(prefix + "avail_burn_5m_milli").Set(milli(st.AvailBurn5m))
			reg.Gauge(prefix + "avail_burn_1h_milli").Set(milli(st.AvailBurn1h))
		}
		if st.P99TargetUS > 0 {
			reg.Gauge(prefix + "latency_burn_5m_milli").Set(milli(st.LatencyBurn5m))
			reg.Gauge(prefix + "latency_burn_1h_milli").Set(milli(st.LatencyBurn1h))
		}
	}
}

// milli converts a burn rate to integer milli-units, saturating instead of
// overflowing on pathological rates.
func milli(v float64) int64 {
	m := math.Round(v * 1000)
	if m > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(m)
}
