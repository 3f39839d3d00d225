package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// dump serializes a plan; equal plans give byte-identical dumps.
func dump(p *Plan) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return b
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	for _, w := range Workloads {
		a := dump(newPlan(w, 7, 200, 20))
		b := dump(newPlan(w, 7, 200, 20))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.Name)
		}
		if c := dump(newPlan(w, 8, 200, 20)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.Name)
		}
	}
}

// Generating other workloads' plans first must not change a workload's
// sequence: every generator seeds its own sources.
func TestPlanIndependentOfOtherWorkloads(t *testing.T) {
	alone := map[string][]byte{}
	for _, w := range Workloads {
		alone[w.Name] = dump(newPlan(w, 3, 150, 10))
	}
	for i := len(Workloads) - 1; i >= 0; i-- {
		w := Workloads[i]
		for _, other := range Workloads {
			newPlan(other, 3, 150, 10)
		}
		if got := dump(newPlan(w, 3, 150, 10)); !bytes.Equal(got, alone[w.Name]) {
			t.Errorf("%s: plan changed after generating the other workloads", w.Name)
		}
	}
}

// A traced run replays a shorter plan from the same seed; it must be a
// prefix of the untraced run's sequence.
func TestShorterPlanIsPrefix(t *testing.T) {
	for _, w := range Workloads {
		long, short := NewPlan(w, 9, 2), NewPlan(w, 9, 1)
		if !bytes.Equal(dump(&Plan{Setup: long.Setup, Warmup: long.Warmup}), dump(&Plan{Setup: short.Setup, Warmup: short.Warmup})) {
			t.Errorf("%s: set-up or warm-up differs between lengths", w.Name)
		}
		for c := range long.Timed {
			if len(short.Timed[c]) == 0 || len(short.Timed[c]) >= len(long.Timed[c]) {
				t.Fatalf("%s: client %d has %d of %d timed steps", w.Name, c, len(short.Timed[c]), len(long.Timed[c]))
			}
			for i, op := range short.Timed[c] {
				if !bytes.Equal(dump(&Plan{Timed: [][]Op{{op}}}), dump(&Plan{Timed: [][]Op{{long.Timed[c][i]}}})) {
					t.Fatalf("%s: client %d step %d differs between lengths", w.Name, c, i)
				}
			}
		}
	}
}

// The write workloads' model must give every op a version consistent with
// its predecessors on the same policy.
func TestPlanVersions(t *testing.T) {
	for _, name := range []string{"write_fresh", "replicated_write", "cold_create"} {
		w, _ := LookupWorkload(name)
		p := newPlan(w, 11, 400, 40)
		version := map[string]uint64{}
		for _, ops := range [][][]Op{p.Setup, p.Warmup, p.Timed} {
			for _, op := range replayOrder(ops) {
				switch op.Kind {
				case OpDelete:
					if version[op.Name] == 0 {
						t.Fatalf("%s: delete of absent %s", name, op.Name)
					}
					delete(version, op.Name)
					continue
				case OpAppend:
					if version[op.Name] == 0 {
						t.Fatalf("%s: append to absent %s", name, op.Name)
					}
				}
				if op.Version != version[op.Name]+1 {
					t.Fatalf("%s: %s %s at version %d, want %d", name, op.Kind, op.Name, op.Version, version[op.Name]+1)
				}
				version[op.Name] = op.Version
			}
		}
		if len(version) != len(p.Final) {
			t.Fatalf("%s: %d live policies, final state lists %d", name, len(version), len(p.Final))
		}
		for _, f := range p.Final {
			if version[f.Name] != f.Version {
				t.Errorf("%s: final %s at %d, ops end at %d", name, f.Name, f.Version, version[f.Name])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []int64
		q    float64
		want float64
	}{
		{[]int64{5}, 0.5, 5},
		{[]int64{4, 1, 3, 2}, 0.5, 2.5},
		{[]int64{3, 1, 2}, 0.5, 2},
		{[]int64{1, 2, 3, 4, 5}, 0, 1},
		{[]int64{1, 2, 3, 4, 5}, 1, 5},
		{[]int64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]int64{0, 100}, 0.99, 99},
	}
	for _, c := range cases {
		in := append([]int64(nil), c.xs...)
		if got := percentile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
		if fmt.Sprint(in) != fmt.Sprint(c.xs) {
			t.Errorf("percentile reordered its input %v", in)
		}
	}
	if !math.IsNaN(percentile[int64](nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The block figures take the quiet quarter's edge: the 0.25-quantile of
// latencies and CPU costs, the 0.75-quantile of rates.
func TestBlockFigures(t *testing.T) {
	if got := percentile([]float64{4, 1, 3, 2, 5}, 0.25); got != 2 {
		t.Errorf("percentile 0.25 = %v, want 2", got)
	}
	if got := percentile([]float64{10, 20}, 0.75); got != 17.5 {
		t.Errorf("percentile 0.75 = %v, want 17.5", got)
	}
	// Five one-second blocks of 1, 2, 3, 4, 5 steps; step latency and
	// CPU per step grow with the block number.
	res := &httpResult{}
	for b := 1; b <= 5; b++ {
		res.ticks = append(res.ticks, cpuTick{at: time.Duration(b-1) * time.Second, cpu: time.Duration(b*b) * time.Millisecond})
		for i := 0; i < b; i++ {
			res.doneNS = append(res.doneNS, int64(time.Duration(b-1)*time.Second+time.Millisecond))
			res.opNS = append(res.opNS, int64(b)*1e6)
			res.freshNS = append(res.freshNS, int64(2*b)*1e6)
		}
	}
	res.ticks = append(res.ticks, cpuTick{at: 5 * time.Second, cpu: 36 * time.Millisecond})
	got := blockFigures(res, time.Second)
	// CPU per step per block: (4-1)/1, (9-4)/2, (16-9)/3, (25-16)/4, (36-25)/5 ms.
	want := blockStats{Blocks: 5, OpP50MS: 2, FreshP50: 4, OpsS: 4, CPUPerOp: 2250}
	if got.Blocks != want.Blocks || got.OpP50MS != want.OpP50MS || got.FreshP50 != want.FreshP50 ||
		got.OpsS != want.OpsS || math.Abs(got.CPUPerOp-want.CPUPerOp) > 1e-9 {
		t.Errorf("blockFigures = %+v, want %+v", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 0.5, 100: 0.9, 250: 0.96, 1000: 0.99, 100000: 0.99} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
		if q := tailQuantile(n); q > 0 && float64(n)*(1-q) < 10-1e-9 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than 10 samples beyond it", n, q)
		}
	}
	l := summarize([]int64{1e6, 2e6, 3e6})
	if l.N != 3 || l.P50MS != 2 || l.TailQ != "" {
		t.Errorf("summarize = %+v", l)
	}
}

func TestRatios(t *testing.T) {
	l := layers{}
	l.ratio("a", 3, 6, "ratio")
	l.ratio("b", 3, 0, "ratio")
	l.p50us("c", []int64{1000, 3000})
	l.p50us("d", nil)
	if m := l["a"]; m.Value != 0.5 || m.N != 6 {
		t.Errorf("ratio a = %+v", m)
	}
	if m := l["c"]; m.Value != 2 || m.N != 2 || m.Unit != "us" {
		t.Errorf("p50us c = %+v", m)
	}
	if _, ok := l["b"]; ok {
		t.Error("a ratio with base 0 was reported")
	}
	if _, ok := l["d"]; ok {
		t.Error("a median of no samples was reported")
	}
}

func TestJSONField(t *testing.T) {
	body := []byte("{\n  \"name\": \"p\",\n  \"version\": 42,\n  \"cache_hit\": true\n}")
	if v, ok := jsonField(body, "version"); !ok || v != 42 {
		t.Errorf("jsonField = %d, %v", v, ok)
	}
	if _, ok := jsonField(body, "missing"); ok {
		t.Error("found an absent field")
	}
}

// The raw client must read fixed-length, chunked and empty bodies over one
// keep-alive connection.
func TestConnFraming(t *testing.T) {
	big := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			fmt.Fprint(w, "hello")
		case "/big":
			w.Write([]byte(big)) // over the server's buffer: chunked
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		for path, want := range map[string]string{"/small": "hello", "/big": big, "/empty": ""} {
			status, body, err := c.do(request("GET", path, nil))
			if err != nil || string(body) != want {
				t.Fatalf("GET %s: status %d err %v body %d bytes, want %d", path, status, err, len(body), len(want))
			}
		}
	}
}

// On short sequences, the end state a real minupd serves after the HTTP
// run equals the in-process replay's.
func TestReplayMatchesServedEndState(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts minupd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "minupd")
	if out, err := exec.Command("go", "build", "-o", bin, "minup/cmd/minupd").CombinedOutput(); err != nil {
		t.Fatalf("building minupd: %v\n%s", err, out)
	}
	for _, name := range []string{"write_fresh", "cold_create", "replicated_write"} {
		t.Run(name, func(t *testing.T) {
			w, _ := LookupWorkload(name)
			p := newPlan(w, 5, 40, 6)
			res, err := runHTTP(bin, filepath.Join(dir, name, "http"), p, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d steps failed: %v", res.failed, res.errs)
			}
			rep, err := tracedReplay(p, filepath.Join(dir, name, "replay"))
			if err != nil {
				t.Fatal(err)
			}
			end := checkEnd(p, res.end, rep, res.clusterPrints)
			if end.Failed != 0 || end.Policies != len(p.Final) {
				t.Fatalf("end state differs: %+v", end)
			}
			if name == "replicated_write" && len(res.clusterPrints) != 3 {
				t.Fatalf("read %d cluster fingerprints, want 3", len(res.clusterPrints))
			}
		})
	}
}
