package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"minup/internal/catalog"
	"minup/internal/frontend"
)

// policyAppendResponse is the body of POST /policies/{name}/constraints as
// encoding/json writes it from a struct: the tests decode acks into it,
// and encodeJSON of it is the reference infoBody must match.
type policyAppendResponse struct {
	catalog.PolicyInfo
	RefreshPending bool `json:"refresh_pending,omitempty"`
}

// problemResponse is the body of POST /problems/{family} as encoding/json
// writes it from a struct.
type problemResponse struct {
	catalog.PolicyInfo
	Family   string `json:"family"`
	Instance string `json:"instance"`
}

// FuzzInfoBody checks infoBody against encoding/json for every answer it
// writes, over arbitrary policy rows and tails: GET and PUT (the row
// alone), an append (refresh_pending) and a stored problem (family and
// instance). The string escaping it uses is fuzzed on its own by
// jsoncodec's FuzzAppendString; this target checks the layout around it.
func FuzzInfoBody(f *testing.F) {
	f.Add("p", uint64(1), 3, 4, 0, 2, true, false, "", "", true, "suppress", "grid-3")
	f.Add("", uint64(0), 0, 0, 0, 0, false, false, "", "", false, "", "")
	f.Add("a<b>&c ", ^uint64(0), -1<<63, 1<<62, -7, 15, false, true,
		"chain mil\nlevels U C S TS\n", "q\"uote\\ ctl\x01\x1f bad\xff\xed\xa0\x80 é",
		true, "dep<inf>", "x\ty")
	f.Fuzz(func(t *testing.T, name string, version uint64, attrs, constraints, upper, shard int,
		compiled, solved bool, lattice, text string, pending bool, family, instance string) {
		info := catalog.PolicyInfo{
			Name: name, Version: version, Attrs: attrs, Constraints: constraints, UpperBounds: upper,
			Shard: shard, Compiled: compiled, Solved: solved, Lattice: lattice, ConstraintText: text,
		}
		for _, c := range []struct {
			what string
			tail infoTail
			ref  any
		}{
			{"row", infoTail{}, info},
			{"append", infoTail{refreshPending: pending}, policyAppendResponse{info, pending}},
			{"problem", infoTail{problem: true, family: family, instance: instance}, problemResponse{info, family, instance}},
		} {
			if got, want := infoBody(info, c.tail), encodeJSON(c.ref); !bytes.Equal(got, want) {
				t.Fatalf("%s: infoBody differs from encoding/json:\n got %q\nwant %q", c.what, got, want)
			}
		}
	})
}

// TestInfoBodyAllocatesOnce: the body is measured before it is written, so
// even the longest numbers and every optional field fit its one
// allocation.
func TestInfoBodyAllocatesOnce(t *testing.T) {
	info := catalog.PolicyInfo{
		Name: "n<>", Version: ^uint64(0), Attrs: -1 << 63, Constraints: -1 << 63, UpperBounds: -1 << 63,
		Shard: -1 << 63, Compiled: false, Solved: false, Lattice: "chain mil\n", ConstraintText: "a >= S\n",
	}
	tail := infoTail{refreshPending: true, problem: true, family: "suppress", instance: "grid "}
	if n := testing.AllocsPerRun(100, func() { infoBody(info, tail) }); n != 1 {
		t.Fatalf("infoBody allocates %v times, want 1", n)
	}
}

// TestInfoBodiesMatchEncodingJSON: each route infoBody answers — a PUT, a
// waited and an async append, a GET with its source texts and a stored
// problem — writes the bytes encoding/json writes for what it states.
func TestInfoBodiesMatchEncodingJSON(t *testing.T) {
	_, h, _ := newTestServer(t)
	check := func(what string, rec *http.Response, body []byte, out any) {
		t.Helper()
		if rec.StatusCode/100 != 2 {
			t.Fatalf("%s = %d: %s", what, rec.StatusCode, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("%s: %v: %s", what, err, body)
		}
		if want := encodeJSON(out); !bytes.Equal(body, want) {
			t.Errorf("%s body:\n%s\nencoding/json writes:\n%s", what, body, want)
		}
	}
	rec := policyReq(t, h, http.MethodPut, "/policies/p?wait=1",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	check("PUT", rec.Result(), rec.Body.Bytes(), &catalog.PolicyInfo{})
	for _, path := range []string{"/policies/p/constraints?wait=1", "/policies/p/constraints"} {
		rec = policyReq(t, h, http.MethodPost, path, &policyRequest{Constraints: "rank >= C\n"}, nil)
		check("append "+path, rec.Result(), rec.Body.Bytes(), &policyAppendResponse{})
	}
	rec = get(t, h, "/policies/p")
	var got catalog.PolicyInfo
	check("GET", rec.Result(), rec.Body.Bytes(), &got)
	if got.Lattice == "" || got.ConstraintText == "" {
		t.Fatalf("GET answered no source texts: %s", rec.Body)
	}
	fe, _ := frontend.Lookup("suppress")
	inst, err := fe.Generate(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frontend.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	rec = problemPost(t, h, "/problems/suppress", raw, nil)
	check("POST /problems", rec.Result(), rec.Body.Bytes(), &problemResponse{})
}
