package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]uint64{1, 10, 100})
	for _, v := range []uint64{0, 1, 2, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Inclusive upper bounds: ≤1 gets {0,1}, ≤10 gets {2,10}, ≤100 gets
	// {11,100}, overflow gets {1000}.
	want := []uint64{2, 2, 2, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	if s.Sum != 0+1+2+10+11+100+1000 {
		t.Errorf("sum = %d", s.Sum)
	}
	if !reflect.DeepEqual(s.Bounds, []uint64{1, 10, 100}) {
		t.Errorf("bounds = %v", s.Bounds)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]uint64{nil, {}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if c2 := r.Counter("x"); c2 != c1 {
		t.Error("Counter returned a different instance for the same name")
	}
	h1 := r.Histogram("h", []uint64{1, 2})
	if h2 := r.Histogram("h", []uint64{9, 99}); h2 != h1 {
		t.Error("Histogram returned a different instance for the same name")
	}
}

func TestRegistrySnapshotJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Histogram("lat", []uint64{1, 10}).Observe(3)

	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("WriteJSON not deterministic across calls")
	}
	var s Snapshot
	if err := json.Unmarshal(buf1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 {
		t.Errorf("counters = %v", s.Counters)
	}
	if h := s.Histograms["lat"]; h.Count != 1 || h.Sum != 3 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("n").Inc()
				r.Histogram("h", SizeBuckets).Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h", SizeBuckets).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestEventLog(t *testing.T) {
	var l EventLog
	l.Append(Event{Kind: EventTry})
	if l.Stamped() || len(l.Events()) != 1 || l.Events()[0].At != 0 {
		t.Fatalf("zero log: stamped=%v events=%+v, want one unstamped event", l.Stamped(), l.Events())
	}
	start := time.Unix(1_000_000, 0)
	tick := start
	l.Start(start, func() time.Time { tick = tick.Add(time.Microsecond); return tick })
	l.Append(Event{Kind: EventAssign, Attr: 2, Level: 5, SCC: 1})
	l.Append(Event{Kind: EventDone, Attr: 2, Level: 5, SCC: 1})
	ev := l.Events()
	if !l.Stamped() || len(ev) != 2 || !l.StartTime().Equal(start) {
		t.Fatalf("started log: stamped=%v events=%+v start=%v", l.Stamped(), ev, l.StartTime())
	}
	if ev[0].At != time.Microsecond || ev[1].At != 2*time.Microsecond || ev[1].Attr != 2 || ev[1].Kind != EventDone {
		t.Fatalf("stamped events = %+v, want offsets 1µs and 2µs", ev)
	}
	l.Reset()
	l.Append(Event{Kind: EventLower})
	if len(l.Events()) != 1 || l.Events()[0].At != 3*time.Microsecond || l.Dropped() != 0 {
		t.Fatalf("after Reset: events=%+v dropped=%d, want one event on the kept clock", l.Events(), l.Dropped())
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventAssign:    "assign",
		EventTry:       "try",
		EventTryFailed: "try_failed",
		EventLower:     "lower",
		EventCollapse:  "collapse",
		EventDone:      "done",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestHistogramConcurrentObserveSnapshot races Observe against Snapshot and
// WritePrometheus under -race: concurrent scrapes must never tear a bucket
// or lose an observation, and the final snapshot sees every write.
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", DurationBucketsUS)
	const workers, per = 4, 20_000
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64((w*per + i) % 1_000_000))
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { writers.Wait(); close(writersDone) }()

	var prev uint64
	for done := false; !done; {
		select {
		case <-writersDone:
			done = true
		default:
		}
		s := h.Snapshot()
		if s.Count < prev {
			t.Fatalf("count went backwards: %d -> %d", prev, s.Count)
		}
		prev = s.Count
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte("lat")) {
			t.Fatal("scrape lost the histogram series")
		}
	}
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("final count = %d, want %d", s.Count, workers*per)
	}
}
