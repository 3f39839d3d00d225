package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRingBounded(t *testing.T) {
	const size = 8
	f := NewFlightRecorder(FlightOptions{Size: size})
	const n = 10 * size
	for i := 0; i < n; i++ {
		a := f.Begin("solve", "GET", fmt.Sprintf("req-%d", i))
		a.Status, a.DurationUS = 200, int64(i)
		f.End(a)
	}
	snap := f.Snapshot()
	if snap.Total != n {
		t.Fatalf("total = %d, want %d", snap.Total, n)
	}
	if len(snap.Recent) != size {
		t.Fatalf("recent ring holds %d records, want exactly %d", len(snap.Recent), size)
	}
	// Newest-first: the last End wins the front slot.
	if snap.Recent[0].ID != fmt.Sprintf("req-%d", n-1) {
		t.Fatalf("newest record id = %q", snap.Recent[0].ID)
	}
	if snap.Recent[size-1].ID != fmt.Sprintf("req-%d", n-size) {
		t.Fatalf("oldest surviving id = %q, want req-%d", snap.Recent[size-1].ID, n-size)
	}
	if len(snap.Active) != 0 {
		t.Fatalf("%d active flights after all ended", len(snap.Active))
	}
}

func TestFlightAnomalyRingSurvivesHealthyTraffic(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Size: 4})
	a := f.Begin("solve", "GET", "bad-one")
	a.Status, a.Err = 500, "boom"
	f.End(a)
	// A burst of healthy traffic laps the main ring several times over.
	for i := 0; i < 32; i++ {
		a := f.Begin("solve", "GET", "ok")
		a.Status = 200
		f.End(a)
	}
	snap := f.Snapshot()
	for _, rec := range snap.Recent {
		if rec.ID == "bad-one" {
			t.Fatal("anomaly unexpectedly survived in the lapped main ring")
		}
	}
	if len(snap.RecentAnomalies) != 1 || snap.RecentAnomalies[0].ID != "bad-one" {
		t.Fatalf("anomaly ring = %+v, want the one 500", snap.RecentAnomalies)
	}
	if snap.AnomalyTotal != 1 {
		t.Fatalf("anomaly total = %d, want 1", snap.AnomalyTotal)
	}
}

func TestFlightAnomalyTriggers(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{SlowThreshold: time.Millisecond})
	cases := []struct {
		name string
		rec  FlightRecord
		want bool
	}{
		{"healthy", FlightRecord{Status: 200}, false},
		{"client error", FlightRecord{Status: 404}, false},
		// A 4xx is the client's mistake, whatever its text says.
		{"client error with text", FlightRecord{Status: 404, Err: `catalog: policy "missing" not found`}, false},
		{"server error", FlightRecord{Status: 500}, true},
		{"explicit err", FlightRecord{Status: 200, Err: "x"}, true},
		{"degraded", FlightRecord{Status: 200, Degraded: true}, true},
		{"panicked", FlightRecord{Status: 500, Panicked: true}, true},
		{"slow", FlightRecord{Status: 200, DurationUS: 2000}, true},
		{"failed refresh", FlightRecord{Outcome: "failed"}, true},
		{"panic refresh", FlightRecord{Outcome: "panic"}, true},
		{"completed refresh", FlightRecord{Outcome: "completed"}, false},
		// Shedding is the designed overload posture, never an anomaly — even
		// though the client saw a 503.
		{"shed", FlightRecord{Status: 503, Shed: true, Err: "wait queue full"}, false},
	}
	for _, tc := range cases {
		if got := f.isAnomaly(&tc.rec); got != tc.want {
			t.Errorf("%s: isAnomaly = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFlightDumpWriteAndCapture(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(FlightOptions{DumpDir: dir})
	a := f.Begin("solve", "GET", "req-1")
	log := a.Events()
	for i := 0; i < flightEvents; i++ {
		log.Append(Event{Kind: EventTry, Attr: 1, Level: 3})
	}
	log.Append(Event{Kind: EventCollapse, Attr: 2}) // over flightEvents: truncated
	a.Status, a.Degraded, a.DegradeReason = 200, true, "deadline"
	f.End(a)

	snap := f.Snapshot()
	if snap.DumpsWritten != 1 {
		t.Fatalf("dumps written = %d, want 1", snap.DumpsWritten)
	}
	if len(snap.RecentAnomalies) != 1 || snap.RecentAnomalies[0].Dump == "" {
		t.Fatalf("anomaly record carries no dump name: %+v", snap.RecentAnomalies)
	}
	data, err := os.ReadFile(filepath.Join(dir, snap.RecentAnomalies[0].Dump))
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		Record          FlightRecord      `json:"record"`
		TruncatedEvents int               `json:"truncated_events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	// Metadata + request slice + the kept solver events.
	if len(dump.TraceEvents) != 2+flightEvents {
		t.Fatalf("traceEvents = %d entries, want %d", len(dump.TraceEvents), 2+flightEvents)
	}
	if dump.Record.ID != "req-1" || !dump.Record.Degraded {
		t.Fatalf("dump record = %+v", dump.Record)
	}
	if dump.TruncatedEvents != 1 {
		t.Fatalf("truncated_events = %d, want 1", dump.TruncatedEvents)
	}
}

func TestFlightDumpRotationByteCap(t *testing.T) {
	dir := t.TempDir()
	// Each dump carries a ~2 KiB error string, so a handful blow the cap.
	f := NewFlightRecorder(FlightOptions{DumpDir: dir, DumpCapBytes: 8 << 10})
	bigErr := strings.Repeat("x", 2<<10)
	for i := 0; i < 12; i++ {
		f.Record(FlightRecord{Kind: "refresh", Route: "catalog.refresh", Outcome: "failed", Err: bigErr})
	}
	snap := f.Snapshot()
	if snap.DumpsWritten != 12 {
		t.Fatalf("dumps written = %d, want 12", snap.DumpsWritten)
	}
	if snap.DumpsPruned == 0 {
		t.Fatal("no dumps pruned despite blowing the byte cap")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		t.Fatal("rotation deleted every dump; the newest must survive")
	}
	if total > 8<<10 && len(names) > 1 {
		t.Fatalf("dump dir holds %d bytes across %v, over the 8 KiB cap", total, names)
	}
	// The newest dump (highest seq suffix) must be among the survivors.
	newest := snap.RecentAnomalies[0].Dump
	found := false
	for _, n := range names {
		if n == newest {
			found = true
		}
	}
	if !found {
		t.Fatalf("newest dump %s not among survivors %v", newest, names)
	}
}

func TestFlightRefreshRecord(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{})
	f.Record(FlightRecord{
		Kind: "refresh", Route: "catalog.refresh",
		Policy: "p", Shard: 3, Version: 7, Outcome: "completed", DurationUS: 42,
	})
	snap := f.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("recent = %d records", len(snap.Recent))
	}
	rec := snap.Recent[0]
	if rec.Kind != "refresh" || rec.Policy != "p" || rec.Shard != 3 || rec.Version != 7 {
		t.Fatalf("refresh record = %+v", rec)
	}
	if rec.Seq == 0 || rec.Start.IsZero() {
		t.Fatalf("identity fields not filled: %+v", rec)
	}
	if rl, ok := snap.Routes["catalog.refresh"]; !ok || rl.Count != 1 {
		t.Fatalf("route latency missing for refresh: %+v", snap.Routes)
	}
}

func TestFlightServeHTTP(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{SLO: NewSLOTracker(SLOSpec{Route: "solve", P99: time.Second, Availability: 0.999})})
	ok := f.Begin("solve", "GET", "ok-req")
	ok.Status = 200
	f.End(ok)
	bad := f.Begin("solve", "GET", "bad-req")
	bad.Status, bad.Err = 500, "exploded"
	f.End(bad)

	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{"ok-req", "bad-req", "exploded", "Recent anomalies", "SLOs"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	var out struct {
		FlightSnapshot
		SLO []SLOStatus `json:"slo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if out.Total != 2 || len(out.RecentAnomalies) != 1 {
		t.Fatalf("JSON snapshot total=%d anomalies=%d", out.Total, len(out.RecentAnomalies))
	}
	if len(out.SLO) != 1 || out.SLO[0].Route != "solve" {
		t.Fatalf("JSON SLO block = %+v", out.SLO)
	}
}

// TestFlightConcurrent hammers Begin/End/Record/Snapshot from many
// goroutines under -race, each writing its flight's record while snapshots
// list it as active: the ring stays bounded and nothing tears.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlightRecorder(FlightOptions{Size: 32})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := f.Begin("solve", "GET", fmt.Sprintf("w%d-%d", w, i))
				a.Events().Append(Event{Kind: EventTry})
				a.Status, a.Policy = 200, "p"
				f.End(a)
				if i%50 == 0 {
					f.Record(FlightRecord{Kind: "refresh", Route: "catalog.refresh", Outcome: "completed"})
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				snap := f.Snapshot()
				if len(snap.Recent) > 32 {
					t.Errorf("ring grew to %d records", len(snap.Recent))
					return
				}
			}
		}()
	}
	wg.Wait()
	if snap := f.Snapshot(); snap.Total != 8*200+8*4 {
		t.Fatalf("total = %d, want %d", snap.Total, 8*200+8*4)
	}
}
