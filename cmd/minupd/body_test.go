package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"

	"minup/internal/catalog"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
)

// TestPolicyBodyStringsOwnTheirBytes: the texts a PUT decodes become the
// stored policy's texts, so neither may be a window of the body, even
// where it has no escapes to decode, and the catalog keeps them as they
// are.
func TestPolicyBodyStringsOwnTheirBytes(t *testing.T) {
	for _, body := range [][]byte{
		[]byte(`{"lattice":"chain mil","constraints":"a >= S"}`),
		[]byte(`{"lattice":"chain mil\nlevels U C S TS\n","constraints":"a >= S"}`),
	} {
		var req policyRequest
		if err := decodePolicy(body, &req); err != nil {
			t.Fatal(err)
		}
		lo := uintptr(unsafe.Pointer(&body[0]))
		for what, s := range map[string]string{"lattice": req.Lattice, "constraints": req.Constraints} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); lo <= p && p < lo+uintptr(len(body)) {
				t.Errorf("%s: the %s text %q shares memory with the body", body, what, s)
			}
		}
		if !strings.Contains(req.Lattice, "\n") {
			continue
		}
		cat, err := catalog.Open(catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		if _, err := cat.Put(context.Background(), "p", req.Lattice, req.Constraints, catalog.Unconditional); err != nil {
			t.Fatal(err)
		}
		info, err := cat.Get("p")
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.StringData(info.Lattice) != unsafe.StringData(req.Lattice) ||
			unsafe.StringData(info.ConstraintText) != unsafe.StringData(req.Constraints) {
			t.Fatal("the catalog copied the decoded texts; the check above would prove nothing about what it keeps")
		}
	}
}

// TestBodiesRefuseRepeatedFields: a PUT, append or suppress body with a
// field given twice or spelled in another letter case answers 400, as a
// depinf instance does, and stores nothing.
func TestBodiesRefuseRepeatedFields(t *testing.T) {
	_, h, _ := newTestServer(t)
	const lat, cons = `"chain mil\nlevels U C S TS\n"`, `"attrs a\na >= S\n"`
	suppressCell := `{"row":0,"col":0,"level":"secret"}`
	suppressBody := func(fields string) string {
		return `{"name":"t","levels":["open","secret"],"rows":2,"cols":2,` + fields + `}`
	}
	for _, tc := range []struct{ method, path, body, want string }{
		{http.MethodPut, "/policies/p", `{"lattice":` + lat + `,"constraints":` + cons + `,"lattice":` + lat + `}`, `field "lattice" given twice`},
		{http.MethodPut, "/policies/p", `{"Lattice":` + lat + `,"constraints":` + cons + `}`, `unknown field "Lattice"`},
		{http.MethodPost, "/policies/p/constraints", `{"constraints":` + cons + `,"constraints":` + cons + `}`, `field "constraints" given twice`},
		{http.MethodPost, "/policies/p/constraints", `{"CONSTRAINTS":` + cons + `}`, `unknown field "CONSTRAINTS"`},
		{http.MethodPost, "/problems/suppress", suppressBody(`"sensitive":[` + suppressCell + `],"rows":2`), `field "rows" given twice`},
		{http.MethodPost, "/problems/suppress", suppressBody(`"Sensitive":[` + suppressCell + `]`), `unknown field "Sensitive"`},
		{http.MethodPost, "/problems/suppress", suppressBody(`"sensitive":[{"row":0,"col":0,"Level":"secret"}]`), `unknown field "Level"`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s %s %s = %d: %s", tc.method, tc.path, tc.body, rec.Code, rec.Body.String())
		}
	}
	if rec := get(t, h, "/policies"); !strings.Contains(rec.Body.String(), `"count": 0`) {
		t.Fatalf("a refused body stored a policy: %s", rec.Body.String())
	}
	// The same bodies without the repeat are accepted.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/problems/suppress", strings.NewReader(suppressBody(`"sensitive":[`+suppressCell+`]`))))
	if rec.Code != http.StatusCreated {
		t.Fatalf("suppress create = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPooledBodiesLeaveStoredTextsAlone: a request's body buffer goes back
// to bodyPool once the body is decoded, and the next body read takes it.
// So a PUT, an append and a problem create, each followed by bodies of the
// same size through the same pool, must leave the texts their versions
// stored as they were. The later bodies are refused, after readBody has
// read them whole.
func TestPooledBodiesLeaveStoredTextsAlone(t *testing.T) {
	srv, h, _ := newTestServer(t)
	send := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body.String())
		}
	}
	overwrite := func(method, path string, size int) {
		t.Helper()
		for _, c := range "qrstuvwxyzQRSTUV" {
			send(method, path, strings.Repeat(string(c), size), http.StatusBadRequest)
		}
	}
	const lat, cons, more = "chain mil\nlevels U C S TS\n", "attrs pay rank\npay >= rank\nrank >= S\n", "pay >= TS\n"
	body := func(req policyRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	put := body(policyRequest{Lattice: lat, Constraints: cons})
	send(http.MethodPut, "/policies/p", put, http.StatusCreated)
	overwrite(http.MethodPut, "/policies/p", len(put))
	appended := body(policyRequest{Constraints: more})
	send(http.MethodPost, "/policies/p/constraints", appended, http.StatusOK)
	overwrite(http.MethodPost, "/policies/p/constraints", len(appended))

	rel, err := depinf.Generate(depinf.GenSpec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frontend.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := depinf.Frontend{}.Compile(rel)
	if err != nil {
		t.Fatal(err)
	}
	send(http.MethodPost, "/problems/depinf", string(raw), http.StatusCreated)
	overwrite(http.MethodPost, "/problems/depinf", len(raw))

	for _, tc := range []struct{ name, lattice, constraints string }{
		{"p", lat, cons + "\n" + more},
		{rel.Name, want.LatticeText, want.ConstraintText},
	} {
		info, err := srv.cat.Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Name != tc.name || info.Lattice != tc.lattice || info.ConstraintText != tc.constraints {
			t.Errorf("policy %q stored as %q, lattice %q, constraints %q; want lattice %q, constraints %q",
				tc.name, info.Name, info.Lattice, info.ConstraintText, tc.lattice, tc.constraints)
		}
	}
}
