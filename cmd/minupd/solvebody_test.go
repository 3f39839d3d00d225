package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"
)

// policySolveResponse is the body of GET/POST /policies/{name}/solve as
// encoding/json writes it from a struct: the tests decode answers into it,
// and encodeJSON of it is the reference solveBody must match byte for byte.
type policySolveResponse struct {
	Name          string            `json:"name"`
	Version       uint64            `json:"version"`
	CacheHit      bool              `json:"cache_hit"`
	Assignment    map[string]string `json:"assignment"`
	Stats         solveStats        `json:"stats"`
	TraceID       string            `json:"trace_id,omitempty"`
	Degraded      bool              `json:"degraded,omitempty"`
	DegradeReason string            `json:"degrade_reason,omitempty"`
	UpgradedAttrs int               `json:"upgraded_attrs,omitempty"`
}

// referenceBody is encodeJSON of the response encoding/json would write
// for a and assignment.
func referenceBody(a solveAnswer, assignment map[string]string) []byte {
	return encodeJSON(policySolveResponse{
		Name:          a.name,
		Version:       a.version,
		CacheHit:      a.cacheHit,
		Assignment:    assignment,
		Stats:         a.stats,
		TraceID:       a.traceID,
		Degraded:      a.degraded,
		DegradeReason: a.degradeReason,
		UpgradedAttrs: a.upgradedAttrs,
	})
}

// mapPairs lists a map in key order, as PolicySolveResult.Pairs lists an
// answer.
type mapPairs struct {
	keys []string
	m    map[string]string
}

func (p mapPairs) Len() int                  { return len(p.keys) }
func (p mapPairs) At(i int) (string, string) { return p.keys[i], p.m[p.keys[i]] }

// FuzzSolveBody checks solveBody against encoding/json over arbitrary
// names, levels, stats and omitempty fields: the bytes must be equal, and
// the body must fill exactly the slice it was allocated in. The string
// escaping it uses is fuzzed on its own by jsoncodec's FuzzAppendString;
// this target checks the body's layout around it. Names and
// levels are the fields of the input split at NUL bytes, taken in pairs.
func FuzzSolveBody(f *testing.F) {
	f.Add("p", uint64(1), true, []byte("salary\x00S\x00rank\x00TS"), 3, int64(12), "", false, "", 0)
	f.Add("", uint64(0), false, []byte(""), 0, int64(0), "", false, "", 0)
	f.Add("a<b>&c", uint64(1)<<63, false,
		[]byte("q\"uote\x00back\\slash\x00ctl\x01\x1f\x7f\x00\b\f\n\r\t\x00html<>&\x00\u2028\u2029\x00bad\xff\xed\xa0\x80\xc3\x00\u00e9\U0001F600\x00"),
		-7, int64(-1), "trace\u2028id", true, "dead<line>", -3)
	f.Fuzz(func(t *testing.T, name string, version uint64, hit bool, pairs []byte,
		tries int, durationUS int64, traceID string, degraded bool, reason string, upgraded int) {
		fields := strings.Split(string(pairs), "\x00")
		assignment := make(map[string]string)
		for i := 0; i+1 < len(fields); i += 2 {
			assignment[fields[i]] = fields[i+1]
		}
		a := solveAnswer{
			name: name, version: version, cacheHit: hit,
			stats:   solveStats{Tries: tries, FailedTries: -tries, Collapses: upgraded, PoolHit: hit, DurationUS: durationUS},
			traceID: traceID, degraded: degraded, degradeReason: reason, upgradedAttrs: upgraded,
		}
		got := solveBody(a, mapPairs{slices.Sorted(maps.Keys(assignment)), assignment})
		if want := referenceBody(a, assignment); !bytes.Equal(got, want) {
			t.Fatalf("solveBody differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("body of %d bytes in a slice of capacity %d", len(got), cap(got))
		}
	})
}

// TestPolicySolveBodiesMatchEncodingJSON: every way the solve route
// answers — a cold solve, a traced one, a degraded baseline and a memo hit
// — writes the bytes encoding/json writes for the answer it states.
func TestPolicySolveBodiesMatchEncodingJSON(t *testing.T) {
	srv, h, _ := newTestServerCfg(t, faultCfg(t, ""))
	putCold(t, srv, h, "fig2")
	srv.gate.queued.Add(srv.gate.softQueue)
	bodies := map[string]*bytes.Buffer{"degraded": get(t, h, "/policies/fig2/solve").Body}
	srv.gate.queued.Add(-srv.gate.softQueue)
	bodies["cold"] = get(t, h, "/policies/fig2/solve").Body
	bodies["hit"] = get(t, h, "/policies/fig2/solve").Body
	bodies["traced hit"] = get(t, h, "/policies/fig2/solve?trace=1").Body
	for what, body := range bodies {
		var out policySolveResponse
		if err := json.Unmarshal(body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v: %s", what, err, body)
		}
		if len(out.Assignment) != 11 || out.Degraded != (what == "degraded") || out.CacheHit != strings.HasSuffix(what, "hit") {
			t.Fatalf("%s answer: %s", what, body)
		}
		if want := encodeJSON(out); !bytes.Equal(body.Bytes(), want) {
			t.Errorf("%s body:\n%s\nencoding/json writes:\n%s", what, body, want)
		}
	}
}
