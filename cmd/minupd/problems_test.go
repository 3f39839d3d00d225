package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minup/internal/constraint"
	"minup/internal/frontend"
)

// problemPost posts a raw instance body to /problems/{family}.
func problemPost(t *testing.T, h http.Handler, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body)))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestProblemList(t *testing.T) {
	_, h, _ := newTestServer(t)
	rec := get(t, h, "/problems")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /problems = %d: %s", rec.Code, rec.Body.String())
	}
	var out problemListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, f := range out.Families {
		got[f.Family] = true
		if f.Describe == "" {
			t.Errorf("family %q listed without a description", f.Family)
		}
	}
	for _, want := range []string{"suppress", "depinf"} {
		if !got[want] {
			t.Fatalf("GET /problems missing family %q: %s", want, rec.Body.String())
		}
	}
}

// TestProblemCreateRoundTrip is the end-to-end path the issue demands: a
// generated suppress instance enters via POST /problems/suppress, becomes
// an ordinary catalog policy, serves a memoized solve, and the solved
// assignment passes the frontend's own source-level oracle.
func TestProblemCreateRoundTrip(t *testing.T) {
	_, h, _ := newTestServer(t)
	for _, family := range []string{"suppress", "depinf"} {
		fe, ok := frontend.Lookup(family)
		if !ok {
			t.Fatalf("frontend %q not registered", family)
		}
		inst, err := fe.Generate(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := frontend.Marshal(inst)
		if err != nil {
			t.Fatal(err)
		}
		rec := problemPost(t, h, "/problems/"+family+"?wait=1", raw, nil)
		if rec.Code != http.StatusCreated {
			t.Fatalf("POST /problems/%s = %d: %s", family, rec.Code, rec.Body.String())
		}
		var created problemResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatal(err)
		}
		if created.Family != family || created.Name != inst.InstanceName() {
			t.Fatalf("created %+v, want family %s name %s", created, family, inst.InstanceName())
		}
		if created.Attrs == 0 || created.Constraints == 0 {
			t.Fatalf("created problem reports an empty compiled shape: %+v", created)
		}
		if rec.Header().Get("ETag") == "" {
			t.Fatal("no ETag on problem create")
		}

		// The stored policy serves a memoized solve like any other.
		solveRec := get(t, h, "/policies/"+inst.InstanceName()+"/solve")
		if solveRec.Code != http.StatusOK {
			t.Fatalf("solve of stored problem = %d: %s", solveRec.Code, solveRec.Body.String())
		}
		var solved policySolveResponse
		if err := json.Unmarshal(solveRec.Body.Bytes(), &solved); err != nil {
			t.Fatal(err)
		}
		if !solved.CacheHit {
			t.Fatalf("%s: wait=1 create should leave a warm cache", family)
		}

		// Check the served assignment against the frontend's source oracle.
		c, err := fe.Compile(inst)
		if err != nil {
			t.Fatal(err)
		}
		set, err := constraint.ParsePolicy(c.LatticeText, c.ConstraintText)
		if err != nil {
			t.Fatal(err)
		}
		if created.Attrs != set.NumAttrs() || created.Constraints != len(set.Constraints()) {
			t.Fatalf("%s: created %d attrs, %d constraints; the texts parse to %d, %d",
				family, created.Attrs, created.Constraints, set.NumAttrs(), len(set.Constraints()))
		}
		m := make(constraint.Assignment, set.NumAttrs())
		for name, levelText := range solved.Assignment {
			a, ok := set.AttrByName(name)
			if !ok {
				t.Fatalf("%s: served assignment names unknown attribute %q", family, name)
			}
			lvl, err := set.Lattice().ParseLevel(levelText)
			if err != nil {
				t.Fatalf("%s: served level %q: %v", family, levelText, err)
			}
			m[a] = lvl
		}
		if err := fe.Oracle(inst, set, m); err != nil {
			t.Fatalf("%s: served assignment fails the source oracle: %v", family, err)
		}
	}
}

func TestProblemCreateErrors(t *testing.T) {
	_, h, _ := newTestServer(t)

	rec := problemPost(t, h, "/problems/no-such-family", []byte(`{}`), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown family = %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "suppress") {
		t.Fatalf("404 should list known families: %s", rec.Body.String())
	}

	rec = problemPost(t, h, "/problems/suppress", []byte(`not json`), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", rec.Code)
	}

	// An instance body is one JSON object, in both families.
	for _, family := range []string{"suppress", "depinf"} {
		fe, _ := frontend.Lookup(family)
		inst, err := fe.Generate(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := frontend.Marshal(inst)
		if err != nil {
			t.Fatal(err)
		}
		for _, trailer := range []string{" trailing garbage", string(raw)} {
			rec = problemPost(t, h, "/problems/"+family, append(raw[:len(raw):len(raw)], trailer...), nil)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "data after the instance") {
				t.Fatalf("%s instance followed by %.20q = %d: %s", family, trailer, rec.Code, rec.Body.String())
			}
		}
	}

	// Structurally valid JSON, semantically invalid instance.
	rec = problemPost(t, h, "/problems/suppress",
		[]byte(`{"name":"x","levels":["open"],"rows":2,"cols":2,"sensitive":[{"row":0,"col":0,"level":"open"}]}`), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid instance = %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestProblemCreateNameAndPreconditions: ?name= overrides the instance
// name, and the conditional-write headers behave as on policy PUT.
func TestProblemCreateNameAndPreconditions(t *testing.T) {
	_, h, _ := newTestServer(t)
	fe, _ := frontend.Lookup("suppress")
	inst, err := fe.Generate(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frontend.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}

	rec := problemPost(t, h, "/problems/suppress?name=renamed", raw, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("named create = %d: %s", rec.Code, rec.Body.String())
	}
	var created problemResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "renamed" {
		t.Fatalf("stored under %q, want renamed", created.Name)
	}
	if created.Instance != inst.InstanceName() {
		t.Fatalf("response lost the instance name: %+v", created)
	}
	if getRec := get(t, h, "/policies/renamed"); getRec.Code != http.StatusOK {
		t.Fatalf("stored problem not readable as a policy: %d", getRec.Code)
	}

	// Create-only on an existing name conflicts; a re-post bumps the version.
	rec = problemPost(t, h, "/problems/suppress?name=renamed", raw, map[string]string{"If-None-Match": "*"})
	if rec.Code != http.StatusConflict {
		t.Fatalf("create-only over existing = %d, want 409", rec.Code)
	}
	rec = problemPost(t, h, "/problems/suppress?name=renamed", raw, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("unconditional re-post = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

// TestOversizedBodyIs413: a body one byte over maxPolicyBody answers 413
// on each route that caps its body, not 400.
func TestOversizedBodyIs413(t *testing.T) {
	_, h, _ := newTestServer(t)
	// pad fills a JSON body with a comment line to exactly maxPolicyBody+1
	// bytes, so a decoder has to read past the cap to finish it.
	pad := func(prefix string) string {
		const suffix = `"}`
		return prefix + strings.Repeat("#", maxPolicyBody+1-len(prefix)-len(suffix)) + suffix
	}
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPut, "/policies/big", pad(`{"lattice":"chain mil\nlevels U C S TS\n","constraints":"`)},
		{http.MethodPost, "/policies/big/constraints", pad(`{"constraints":"`)},
		{http.MethodPost, "/problems/suppress", strings.Repeat(" ", maxPolicyBody+1)},
	} {
		if len(tc.body) != maxPolicyBody+1 {
			t.Fatalf("%s %s: body is %d bytes", tc.method, tc.path, len(tc.body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d bytes = %d, want 413: %.200s", tc.method, tc.path, len(tc.body), rec.Code, rec.Body.String())
		}
	}
}

// TestProblemCreateChunked: a problem body sent chunked, so without a
// Content-Length to size its buffer from, is read whole.
func TestProblemCreateChunked(t *testing.T) {
	_, h, _ := newTestServer(t)
	ts := httptest.NewServer(h)
	defer ts.Close()
	fe, _ := frontend.Lookup("depinf")
	inst, err := fe.Generate(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frontend.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	// A reader of unknown length makes the client send the body chunked.
	resp, err := ts.Client().Post(ts.URL+"/problems/depinf", "application/json", io.MultiReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("chunked POST /problems/depinf = %d: %s", resp.StatusCode, out)
	}
	var created problemResponse
	if err := json.Unmarshal(out, &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != inst.InstanceName() || created.Constraints == 0 {
		t.Fatalf("chunked create stored %+v", created)
	}
}
