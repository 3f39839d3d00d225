package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func buildPromRegistry() *Registry {
	r := NewRegistry()
	r.Counter("solve.count").Add(7)
	r.Counter("solve.errors").Add(1)
	r.Gauge("http.in_flight").Set(3)
	r.Gauge("solve.pool.sessions").Set(-2) // gauges may go negative
	h := r.Histogram("solve.duration_us", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	// A name needing sanitization: dots and a dash become underscores.
	r.Counter("weird-name.with dots").Inc()
	// An info metric: constant 1, payload in the labels.
	r.Info("build_info", map[string]string{
		"version":    "v1.2.3",
		"go_version": "go1.99",
	})
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPromRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WritePrometheus drifted from %s (re-run with -update):\ngot:\n%swant:\n%s",
			golden, buf.String(), want)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := buildPromRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two writes of the same registry differ")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"solve.count":    "solve_count",
		"http.in_flight": "http_in_flight",
		"9lives":         "_9lives",
		"a b-c":          "a_b_c",
		"":               "_",
		"ok:name_1":      "ok:name_1",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Errorf("escapeLabelValue = %q, want %q", got, want)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Add(5)
	g.Dec()
	g.Sub(2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge value %d, want 3", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge value %d, want -7", got)
	}
}

func TestRegistryGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	if r.Gauge("g") != g {
		t.Fatal("second lookup returned a different gauge")
	}
	g.Set(9)
	s := r.Snapshot()
	if s.Gauges["g"] != 9 {
		t.Fatalf("snapshot gauges %v", s.Gauges)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"gauges"`) {
		t.Fatalf("snapshot JSON missing gauges key:\n%s", buf.String())
	}
}

func TestEventTryStepString(t *testing.T) {
	if got := EventTryStep.String(); got != "try_step" {
		t.Fatalf("EventTryStep.String() = %q", got)
	}
	if got := fmt.Sprint(numEventKinds); got != "7" {
		t.Fatalf("numEventKinds = %s, want 7", got)
	}
}
