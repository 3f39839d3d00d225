package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpecs(t *testing.T) {
	specs, err := ParseSLOSpecs("solve:p99=100ms,avail=99.9; policy.solve:avail=99.99 ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(specs))
	}
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if specs[0].Route != "solve" || specs[0].P99 != 100*time.Millisecond || !near(specs[0].Availability, 0.999) {
		t.Fatalf("spec[0] = %+v", specs[0])
	}
	if specs[1].Route != "policy.solve" || specs[1].P99 != 0 || !near(specs[1].Availability, 0.9999) {
		t.Fatalf("spec[1] = %+v", specs[1])
	}

	for _, bad := range []string{
		"noroute",          // no colon
		":p99=1s",          // empty route
		"solve:p99",        // no value
		"solve:p99=banana", // bad duration
		"solve:p99=-1s",    // non-positive duration
		"solve:avail=100",  // availability must be < 100
		"solve:avail=0",    // and > 0
		"solve:latency=1s", // unknown key
		"solve:",           // no objectives
	} {
		if _, err := ParseSLOSpecs(bad); err == nil {
			t.Errorf("ParseSLOSpecs(%q) accepted", bad)
		}
	}
	// A repeated route is refused by name: a tracker keeps one spec per
	// route, so the second entry's objectives would be dropped silently.
	if _, err := ParseSLOSpecs("policy.solve:p99=250ms;policy.solve:avail=99.9"); err == nil ||
		!strings.Contains(err.Error(), `"policy.solve"`) {
		t.Fatalf("repeated route: err = %v, want one naming \"policy.solve\"", err)
	}
	// So is a repeated objective within one entry: keeping the last value
	// would let a typo loosen p99 from 250ms to 5s without a word.
	if _, err := ParseSLOSpecs("policy.solve:p99=250ms,p99=5s"); err == nil ||
		!strings.Contains(err.Error(), `"p99"`) {
		t.Fatalf("repeated objective: err = %v, want one naming \"p99\"", err)
	}
	if specs, err := ParseSLOSpecs(""); err != nil || specs != nil {
		t.Fatalf("empty spec = %v, %v", specs, err)
	}
}

func TestSLOBurnRates(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	tr := NewSLOTracker(SLOSpec{Route: "solve", P99: 100 * time.Millisecond, Availability: 0.999})
	tr.Now = func() time.Time { return now }

	// 1000 requests: 10 bad, 20 slow. Bad fraction 1% against a 0.1% budget
	// → availability burn 10×. Slow fraction 2% against the 1% p99 budget
	// → latency burn 2×.
	for i := 0; i < 1000; i++ {
		dur := 10 * time.Millisecond
		if i < 20 {
			dur = 200 * time.Millisecond
		}
		tr.Record("solve", dur, i < 10)
	}
	tr.Record("untracked", time.Second, true) // no spec: ignored

	st := tr.Status()
	if len(st) != 1 {
		t.Fatalf("status = %+v", st)
	}
	s := st[0]
	if s.Requests5m != 1000 || s.Requests1h != 1000 {
		t.Fatalf("requests 5m=%d 1h=%d, want 1000", s.Requests5m, s.Requests1h)
	}
	if got := s.AvailBurn5m; got < 9.99 || got > 10.01 {
		t.Fatalf("avail burn 5m = %v, want 10", got)
	}
	if got := s.LatencyBurn5m; got < 1.99 || got > 2.01 {
		t.Fatalf("latency burn 5m = %v, want 2", got)
	}

	// 6 minutes later the short window is empty but the hour still sees it.
	now = now.Add(6 * time.Minute)
	s = tr.Status()[0]
	if s.Requests5m != 0 || s.AvailBurn5m != 0 {
		t.Fatalf("5m window after 6 minutes: req=%d burn=%v", s.Requests5m, s.AvailBurn5m)
	}
	if s.Requests1h != 1000 || s.AvailBurn1h < 9.99 {
		t.Fatalf("1h window after 6 minutes: req=%d burn=%v", s.Requests1h, s.AvailBurn1h)
	}

	// After the hour laps (and the buckets get reused for new epochs),
	// everything drains to zero.
	now = now.Add(time.Hour)
	s = tr.Status()[0]
	if s.Requests1h != 0 || s.AvailBurn1h != 0 || s.LatencyBurn1h != 0 {
		t.Fatalf("1h window after lap: %+v", s)
	}
}

func TestSLOBucketReuseAfterLap(t *testing.T) {
	now := time.Unix(500_000, 0)
	tr := NewSLOTracker(SLOSpec{Route: "r", Availability: 0.99})
	tr.Now = func() time.Time { return now }
	tr.Record("r", 0, true)
	// Exactly one full ring later the same bucket index comes around; its
	// stale epoch must be reset, not accumulated.
	now = now.Add(sloBucketCount * sloBucketSeconds * time.Second)
	tr.Record("r", 0, false)
	s := tr.Status()[0]
	if s.Requests1h != 1 || s.AvailBurn1h != 0 {
		t.Fatalf("lapped bucket leaked stale counts: %+v", s)
	}
}

func TestSLOPublishGauges(t *testing.T) {
	now := time.Unix(2_000_000, 0)
	tr := NewSLOTracker(SLOSpec{Route: "solve", P99: 100 * time.Millisecond, Availability: 0.999})
	tr.Now = func() time.Time { return now }
	reg := NewRegistry()

	// Publishing with no traffic still registers the series at zero.
	tr.Publish(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		"slo.solve.avail_burn_5m_milli", "slo.solve.avail_burn_1h_milli",
		"slo.solve.latency_burn_5m_milli", "slo.solve.latency_burn_1h_milli",
	} {
		if v, ok := snap.Gauges[name]; !ok || v != 0 {
			t.Errorf("pre-traffic gauge %s = %d, %v", name, v, ok)
		}
	}

	for i := 0; i < 100; i++ {
		tr.Record("solve", time.Millisecond, i == 0) // 1% bad → 10× burn
	}
	tr.Publish(reg)
	if got := reg.Snapshot().Gauges["slo.solve.avail_burn_5m_milli"]; got != 10000 {
		t.Fatalf("avail burn gauge = %d milli, want 10000", got)
	}

	// Nil receivers and registries are safe no-ops.
	var nilTr *SLOTracker
	nilTr.Record("solve", 0, true)
	nilTr.Publish(reg)
	if nilTr.Status() != nil {
		t.Fatal("nil tracker status not nil")
	}
	tr.Publish(nil)
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	var empty HistogramSnapshot = h.Snapshot()
	if q := empty.Quantile(0.99); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	for i := 0; i < 98; i++ {
		h.Observe(5) // ≤10 bucket
	}
	h.Observe(50)   // ≤100
	h.Observe(5000) // overflow
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100", q)
	}
	// The overflow bucket reports the last finite bound rather than
	// inventing a value.
	if q := s.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want 1000", q)
	}
	if q := s.Quantile(-1); q != 10 {
		t.Fatalf("clamped low quantile = %d, want 10", q)
	}
}
