package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"minup"
)

const (
	testPolicyLattice = "chain mil\nlevels U C S TS\n"
	testPolicyCons    = "attrs salary rank\nsalary >= rank\nrank >= S\n"
)

// policyReq performs one request against the handler with an optional JSON
// body built from a policyRequest and optional conditional headers.
func policyReq(t *testing.T, h http.Handler, method, path string, body *policyRequest, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPolicyWaitPutShedWhenSaturated: a PUT with ?wait=1 runs a full
// inline compile+solve, so it passes the same admission gate as solves and
// appends — and sheds when the gate is saturated. A plain async PUT does
// no inline solver work and must keep landing regardless.
func TestPolicyWaitPutShedWhenSaturated(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 0
	srv, h, _ := newTestServerCfg(t, cfg)

	// Occupy the only slot, as a long-running solve would.
	srv.gate.sem <- struct{}{}
	defer func() { <-srv.gate.sem }()

	body := &policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}
	rec := policyReq(t, h, http.MethodPut, "/policies/gated?wait=1", body, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated wait-PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	rec = policyReq(t, h, http.MethodPut, "/policies/gated", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("saturated async PUT = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPolicyLifecycle walks the full policy lifecycle over HTTP with
// ?wait=1 mutations and proves the acceptance criterion with counters:
// every solve of an unchanged policy is a cache hit with zero compiles and
// zero full solves beyond the one compile the PUT's inline refresh ran —
// solve.cold never moves, and the append maintains the cache through the
// incremental repair.
func TestPolicyLifecycle(t *testing.T) {
	srv, h, _ := newTestServer(t)

	rec := policyReq(t, h, http.MethodPut, "/policies/acct?wait=1",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if et := rec.Header().Get("ETag"); et != `"1"` {
		t.Fatalf("created ETag = %q, want %q", et, `"1"`)
	}
	var pinfo struct {
		Solved   bool `json:"solved"`
		Compiled bool `json:"compiled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pinfo); err != nil {
		t.Fatal(err)
	}
	if !pinfo.Solved || !pinfo.Compiled {
		t.Fatalf("wait-PUT answered with a cold cache: %+v", pinfo)
	}

	rec = get(t, h, "/policies")
	var list policyListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Policies) != 1 || list.Policies[0].Name != "acct" {
		t.Fatalf("list = %+v", list)
	}

	// First solve: the wait-PUT already warmed this version's cache.
	rec = get(t, h, "/policies/acct/solve")
	if rec.Code != http.StatusOK {
		t.Fatalf("solve = %d: %s", rec.Code, rec.Body.String())
	}
	var sr policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CacheHit {
		t.Fatal("solve after a wait-PUT was not a cache hit")
	}
	if sr.Assignment["salary"] != "S" || sr.Assignment["rank"] != "S" {
		t.Fatalf("assignment = %v", sr.Assignment)
	}
	before := srv.reg.Snapshot()
	if before.Counters["catalog.compiles"] != 1 || before.Counters["solve.cold"] != 0 {
		t.Fatalf("after wait-PUT + solve: compiles=%d cold=%d, want 1/0",
			before.Counters["catalog.compiles"], before.Counters["solve.cold"])
	}

	// Second solve of the unchanged policy: zero compiles, zero solves.
	rec = get(t, h, "/policies/acct/solve")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CacheHit {
		t.Fatal("unchanged policy's second solve was not a cache hit")
	}
	if et := rec.Header().Get("ETag"); et != `"1"` {
		t.Fatalf("solve ETag = %q, want %q", et, `"1"`)
	}
	after := srv.reg.Snapshot()
	if after.Counters["catalog.compiles"] != before.Counters["catalog.compiles"] {
		t.Fatalf("cache-hit solve compiled: %d -> %d",
			before.Counters["catalog.compiles"], after.Counters["catalog.compiles"])
	}
	if after.Counters["solve.cold"] != before.Counters["solve.cold"] {
		t.Fatalf("cache-hit solve ran a full solve: %d -> %d",
			before.Counters["solve.cold"], after.Counters["solve.cold"])
	}
	if after.Counters["catalog.cache_hits"] != before.Counters["catalog.cache_hits"]+1 {
		t.Fatalf("cache_hits = %d, want %d",
			after.Counters["catalog.cache_hits"], before.Counters["catalog.cache_hits"]+1)
	}

	// A waited append compiles and solves the new version inline, so it
	// answers warm and the next solve is a hit, at the new version.
	rec = policyReq(t, h, http.MethodPost, "/policies/acct/constraints?wait=1",
		&policyRequest{Constraints: "rank >= TS\n"}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append = %d: %s", rec.Code, rec.Body.String())
	}
	var ar policyAppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Solved || !ar.Compiled {
		t.Fatalf("waited append answered a cold version: %+v", ar)
	}
	if ar.RefreshPending {
		t.Fatal("waited append still reported a pending refresh")
	}
	if ar.Version != 2 {
		t.Fatalf("appended version = %d, want 2", ar.Version)
	}
	rec = get(t, h, "/policies/acct/solve")
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CacheHit || sr.Version != 2 {
		t.Fatalf("post-append solve: hit=%v version=%d, want hit at version 2", sr.CacheHit, sr.Version)
	}
	if sr.Assignment["rank"] != "TS" || sr.Assignment["salary"] != "TS" {
		t.Fatalf("post-append assignment = %v", sr.Assignment)
	}
	final := srv.reg.Snapshot()
	if final.Counters["solve.cold"] != 0 {
		t.Fatalf("solve.cold = %d after waited mutations, want 0", final.Counters["solve.cold"])
	}
	if final.Counters["catalog.refresh.solves"] != 2 {
		t.Fatalf("catalog.refresh.solves = %d, want 2 (the waited put and append)", final.Counters["catalog.refresh.solves"])
	}

	rec = policyReq(t, h, http.MethodDelete, "/policies/acct", nil, nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE = %d: %s", rec.Code, rec.Body.String())
	}
	if rec = get(t, h, "/policies/acct"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after delete = %d", rec.Code)
	}
	if rec = get(t, h, "/policies/acct/solve"); rec.Code != http.StatusNotFound {
		t.Fatalf("solve after delete = %d", rec.Code)
	}
}

// TestPolicyAsyncPipeline covers the default (no ?wait) path: mutations
// answer before the solver refresh ran, appends carry refresh_pending, and
// once the pipeline drains the next solve is served warm at the new
// version without a single synchronous cold solve.
func TestPolicyAsyncPipeline(t *testing.T) {
	srv, h, _ := newTestServer(t)

	rec := policyReq(t, h, http.MethodPut, "/policies/bg",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}
	rec = policyReq(t, h, http.MethodPost, "/policies/bg/constraints",
		&policyRequest{Constraints: "rank >= TS\n"}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("append = %d: %s", rec.Code, rec.Body.String())
	}
	var ar policyAppendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.RefreshPending {
		t.Fatalf("async append = %+v, want a pending refresh", ar)
	}
	if ar.Version != 2 {
		t.Fatalf("async append version = %d, want 2", ar.Version)
	}

	if err := srv.cat.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rec = get(t, h, "/policies/bg/solve")
	var sr policySolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CacheHit || sr.Version != 2 || sr.Assignment["rank"] != "TS" {
		t.Fatalf("post-flush solve: hit=%v version=%d assignment=%v, want warm version 2",
			sr.CacheHit, sr.Version, sr.Assignment)
	}
	if cold := srv.reg.Snapshot().Counters["solve.cold"]; cold != 0 {
		t.Fatalf("solve.cold = %d, want 0 (refreshes ran on shard workers)", cold)
	}
}

// TestPolicyIndex pins the GET /policies wire format: every entry carries
// the version rendered as an etag, its shard assignment, and the cache
// state, so operators can see pipeline progress without per-policy GETs.
func TestPolicyIndex(t *testing.T) {
	srv, h, _ := newTestServer(t)
	for _, name := range []string{"idx-a", "idx-b"} {
		if rec := policyReq(t, h, http.MethodPut, "/policies/"+name+"?wait=1",
			&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil); rec.Code != http.StatusCreated {
			t.Fatalf("PUT %s = %d: %s", name, rec.Code, rec.Body.String())
		}
	}

	rec := get(t, h, "/policies")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /policies = %d", rec.Code)
	}
	for _, key := range []string{`"etag"`, `"shard"`, `"solved"`, `"compiled"`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Fatalf("index response lacks %s: %s", key, rec.Body.String())
		}
	}
	var list policyListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 2 || len(list.Policies) != 2 {
		t.Fatalf("index = %+v, want 2 policies", list)
	}
	nshards := srv.cat.RecoveryInfo().Shards
	for _, e := range list.Policies {
		if e.ETag != `"1"` || e.Version != 1 {
			t.Fatalf("%s: etag %q version %d, want \"1\"/1", e.Name, e.ETag, e.Version)
		}
		if e.Shard < 0 || e.Shard >= nshards {
			t.Fatalf("%s: shard %d outside [0,%d)", e.Name, e.Shard, nshards)
		}
		if !e.Solved || !e.Compiled {
			t.Fatalf("%s: wait-PUT left cache state %+v", e.Name, e)
		}
	}
}

// TestPolicyPreconditions covers the conditional-header matrix: 409 for
// create-only conflicts, 412 for lost version races, 404 for unknown
// names, and 400/422 for malformed or unsolvable input.
func TestPolicyPreconditions(t *testing.T) {
	_, h, _ := newTestServer(t)
	body := &policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}

	if rec := policyReq(t, h, http.MethodPut, "/policies/p", body,
		map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusCreated {
		t.Fatalf("create-only PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/p", body,
		map[string]string{"If-None-Match": "*"}); rec.Code != http.StatusConflict {
		t.Fatalf("create-only PUT over existing = %d, want 409", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/p", body,
		map[string]string{"If-Match": `"5"`}); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("stale If-Match PUT = %d, want 412", rec.Code)
	}
	rec := policyReq(t, h, http.MethodPut, "/policies/p", body,
		map[string]string{"If-Match": `"1"`})
	if rec.Code != http.StatusOK {
		t.Fatalf("matching If-Match PUT = %d: %s", rec.Code, rec.Body.String())
	}
	if et := rec.Header().Get("ETag"); et != `"2"` {
		t.Fatalf("replaced ETag = %q, want %q", et, `"2"`)
	}

	if rec := policyReq(t, h, http.MethodPost, "/policies/p/constraints",
		&policyRequest{Constraints: "salary >= C\n"},
		map[string]string{"If-Match": `"1"`}); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("stale If-Match append = %d, want 412", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodDelete, "/policies/p", nil,
		map[string]string{"If-Match": `"1"`}); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("stale If-Match delete = %d, want 412", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/p", body,
		map[string]string{"If-Match": "abc"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed If-Match = %d, want 400", rec.Code)
	}

	if rec := get(t, h, "/policies/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown = %d, want 404", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodDelete, "/policies/nope", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/bad..name/x", body, nil); rec.Code != http.StatusNotFound {
		// Two path segments under /policies only match the /constraints,
		// /solve, and /trace patterns; everything else is the mux's 404.
		t.Fatalf("nested name = %d, want 404", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/unsolvable",
		&policyRequest{Lattice: testPolicyLattice, Constraints: "U >= salary\nsalary >= S\n"},
		nil); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unsolvable PUT = %d, want 422", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/q",
		&policyRequest{Lattice: testPolicyLattice, Constraints: "salary >=\n"},
		nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("unparseable PUT = %d, want 400", rec.Code)
	}
	if rec := policyReq(t, h, http.MethodPut, "/policies/q",
		&policyRequest{Lattice: testPolicyLattice}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing constraints PUT = %d, want 400", rec.Code)
	}
}

// TestPolicyMethodNotAllowed pins the mux's method-pattern behavior: a
// mismatched method on a policy route answers 405 with an Allow set, not
// 404.
func TestPolicyMethodNotAllowed(t *testing.T) {
	_, h, _ := newTestServer(t)
	rec := policyReq(t, h, http.MethodPost, "/policies/p", nil, nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /policies/p = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "PUT") || !strings.Contains(allow, "DELETE") {
		t.Fatalf("Allow = %q, want PUT and DELETE listed", allow)
	}
	if rec := policyReq(t, h, http.MethodDelete, "/policies", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /policies = %d, want 405", rec.Code)
	}
}

// TestPolicyETagRace hammers one policy with concurrent compare-and-swap
// appenders: each reads the current ETag, sends it back as If-Match, and
// retries on 412. Serialization through the catalog mutex must yield a
// linear version history — every successful append bumps the version by
// exactly one and no appended line is lost.
func TestPolicyETagRace(t *testing.T) {
	_, h, _ := newTestServer(t)
	if rec := policyReq(t, h, http.MethodPut, "/policies/raced",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}

	const (
		goroutines = 8
		appends    = 4
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				line := fmt.Sprintf("r%02d_%02d >= C\n", g, i)
				for {
					rec := policyReq(t, h, http.MethodGet, "/policies/raced", nil, nil)
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("GET = %d", rec.Code)
						return
					}
					rec = policyReq(t, h, http.MethodPost, "/policies/raced/constraints",
						&policyRequest{Constraints: line},
						map[string]string{"If-Match": rec.Header().Get("ETag")})
					if rec.Code == http.StatusOK {
						break
					}
					if rec.Code != http.StatusPreconditionFailed {
						errs <- fmt.Errorf("append = %d: %s", rec.Code, rec.Body.String())
						return
					}
					// 412: someone else won the version; re-read and retry.
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rec := policyReq(t, h, http.MethodGet, "/policies/raced", nil, nil)
	var info struct {
		Version         uint64 `json:"version"`
		ConstraintsText string `json:"constraints_text"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1 + goroutines*appends); info.Version != want {
		t.Fatalf("final version = %d, want %d (one bump per successful append)", info.Version, want)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < appends; i++ {
			line := fmt.Sprintf("r%02d_%02d >= C", g, i)
			if n := strings.Count(info.ConstraintsText, line); n != 1 {
				t.Fatalf("appended line %q appears %d times, want exactly 1 (lost or duplicated update)", line, n)
			}
		}
	}
}

// TestPolicySolveHitBytes: a memo hit's body is, byte for byte, the
// per-request encoding of the same answer, and it goes out with its
// Content-Type, ETag and Content-Length. The first hit fills the stored
// bytes and the second writes them, so both are checked.
func TestPolicySolveHitBytes(t *testing.T) {
	srv, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	res, err := srv.cat.Solve(context.Background(), "fig2")
	if err != nil || !res.CacheHit {
		t.Fatalf("catalog Solve: hit=%v err=%v", res.CacheHit, err)
	}
	want := encodeJSON(policySolveResponse{
		Name:       "fig2",
		Version:    1,
		CacheHit:   true,
		Assignment: res.Assignment,
		Stats:      newSolveStats(res.Stats),
	})
	for i := 0; i < 2; i++ {
		rec := get(t, h, "/policies/fig2/solve")
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("hit %d = %d:\n%s\nwant:\n%s", i, rec.Code, rec.Body.Bytes(), want)
		}
		hdr := rec.Header()
		if hdr.Get("Content-Type") != "application/json" || hdr.Get("ETag") != `"1"` ||
			hdr.Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Fatalf("hit %d headers = %v", i, hdr)
		}
	}
}

// TestPolicySolveHitAfterMutation: the stored bytes die with their
// version. After an append, and after delete + recreate — where the
// version is 1 again — a hit serves the new version's answer.
func TestPolicySolveHitAfterMutation(t *testing.T) {
	_, h, _ := newTestServer(t)
	hit := func(wantVersion uint64) policySolveResponse {
		t.Helper()
		out := decodeSolve(t, get(t, h, "/policies/p/solve"))
		if !out.CacheHit || out.Version != wantVersion {
			t.Fatalf("solve: hit=%v version=%d, want a hit of version %d", out.CacheHit, out.Version, wantVersion)
		}
		return out
	}
	mutate := func(method, path string, body *policyRequest, want int) {
		t.Helper()
		if rec := policyReq(t, h, method, path, body, nil); rec.Code != want {
			t.Fatalf("%s %s = %d: %s", method, path, rec.Code, rec.Body.String())
		}
	}
	mutate(http.MethodPut, "/policies/p?wait=1", &policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, http.StatusCreated)
	if out := hit(1); out.Assignment["rank"] != "S" {
		t.Fatalf("version 1 assignment = %v", out.Assignment)
	}
	mutate(http.MethodPost, "/policies/p/constraints?wait=1", &policyRequest{Constraints: "rank >= TS\n"}, http.StatusOK)
	if out := hit(2); out.Assignment["rank"] != "TS" {
		t.Fatalf("version 2 assignment = %v, want rank TS", out.Assignment)
	}
	mutate(http.MethodDelete, "/policies/p", nil, http.StatusNoContent)
	mutate(http.MethodPut, "/policies/p?wait=1", &policyRequest{Lattice: testPolicyLattice, Constraints: "attrs x\nx >= C\n"}, http.StatusCreated)
	if out := hit(1); len(out.Assignment) != 1 || out.Assignment["x"] != "C" {
		t.Fatalf("recreated version 1 assignment = %v, want only x = C", out.Assignment)
	}
}

// TestPolicySolveTracedHit: a traced hit carries its own trace ID, and its
// body is never stored as the version's: plain hits before and after it
// carry none.
func TestPolicySolveTracedHit(t *testing.T) {
	_, h, _ := newTestServer(t)
	putWarm(t, h, "fig2")
	traced := func() {
		t.Helper()
		if out := decodeSolve(t, get(t, h, "/policies/fig2/solve?trace=1")); !out.CacheHit || out.TraceID == "" {
			t.Fatalf("traced hit: hit=%v trace_id=%q", out.CacheHit, out.TraceID)
		}
	}
	traced()
	plain := get(t, h, "/policies/fig2/solve")
	if strings.Contains(plain.Body.String(), "trace_id") {
		t.Fatalf("plain hit after a traced one carries a trace ID:\n%s", plain.Body.String())
	}
	traced()
	if again := get(t, h, "/policies/fig2/solve"); !bytes.Equal(again.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatalf("plain hits differ:\n%s\n%s", plain.Body.String(), again.Body.String())
	}
}

// TestPolicyAcksCarryNoSourceText: PUT, append and problem-create acks
// describe the version without its lattice and constraint texts, waited or
// not; GET /policies/{name} still serves both.
func TestPolicyAcksCarryNoSourceText(t *testing.T) {
	_, h, _ := newTestServer(t)
	noTexts := func(what string, rec *httptest.ResponseRecorder, wantCode int) {
		t.Helper()
		var keys map[string]json.RawMessage
		if rec.Code != wantCode {
			t.Fatalf("%s = %d: %s", what, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
			t.Fatal(err)
		}
		if _, ok := keys["version"]; !ok {
			t.Fatalf("%s ack has no version: %s", what, rec.Body.String())
		}
		for _, k := range []string{"lattice", "constraints_text"} {
			if _, ok := keys[k]; ok {
				t.Fatalf("%s ack carries %q: %s", what, k, rec.Body.String())
			}
		}
	}
	body := &policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}
	noTexts("PUT", policyReq(t, h, http.MethodPut, "/policies/a", body, nil), http.StatusCreated)
	noTexts("waited PUT", policyReq(t, h, http.MethodPut, "/policies/b?wait=1", body, nil), http.StatusCreated)
	appended := &policyRequest{Constraints: "rank >= TS\n"}
	noTexts("append", policyReq(t, h, http.MethodPost, "/policies/a/constraints", appended, nil), http.StatusOK)
	noTexts("waited append", policyReq(t, h, http.MethodPost, "/policies/b/constraints?wait=1", appended, nil), http.StatusOK)
	fe, _ := minup.LookupProblemFrontend("suppress")
	inst, err := fe.Generate(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := minup.MarshalProblemInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	noTexts("problem create", problemPost(t, h, "/problems/suppress?wait=1", raw, nil), http.StatusCreated)

	var full minup.PolicyInfo
	if err := json.Unmarshal(get(t, h, "/policies/b").Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Lattice != testPolicyLattice || full.ConstraintText != testPolicyCons+"\nrank >= TS\n" {
		t.Fatalf("GET /policies/b = %+v, want both source texts", full)
	}
}

// TestPolicyRefusesUnwritableNames: a PUT or append whose text declares an
// attribute name the policy text form cannot carry is a bad request.
func TestPolicyRefusesUnwritableNames(t *testing.T) {
	_, h, _ := newTestServer(t)
	if rec := policyReq(t, h, http.MethodPut, "/policies/p", &policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil); rec.Code != http.StatusCreated {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body.String())
	}
	const cons = "salary >= x\u00a0y\n"
	if rec := policyReq(t, h, http.MethodPut, "/policies/q", &policyRequest{Lattice: testPolicyLattice, Constraints: cons}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("PUT declaring an unwritable name = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := policyReq(t, h, http.MethodPost, "/policies/p/constraints", &policyRequest{Constraints: cons}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("append declaring an unwritable name = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPolicyBodyRefusesTrailingData: a PUT or append body is one JSON
// object; garbage or a second object after it answers 400 and stores
// nothing, while trailing white space is still accepted.
func TestPolicyBodyRefusesTrailingData(t *testing.T) {
	_, h, _ := newTestServer(t)
	send := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	put, err := json.Marshal(policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons})
	if err != nil {
		t.Fatal(err)
	}
	const appendBody = `{"constraints":"rank >= TS\n"}`
	for _, trailer := range []string{" trailing garbage", `{"lattice":"x","constraints":"y"}`, "}"} {
		rec := send(http.MethodPut, "/policies/p", string(put)+trailer)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "data after the JSON value") {
			t.Fatalf("PUT with %q after the body = %d: %s", trailer, rec.Code, rec.Body.String())
		}
		if rec := get(t, h, "/policies/p"); rec.Code != http.StatusNotFound {
			t.Fatalf("refused PUT stored the policy: GET = %d", rec.Code)
		}
	}
	if rec := send(http.MethodPut, "/policies/p", string(put)+"\n"); rec.Code != http.StatusCreated {
		t.Fatalf("PUT with a trailing newline = %d: %s", rec.Code, rec.Body.String())
	}
	for _, trailer := range []string{" trailing garbage", appendBody} {
		rec := send(http.MethodPost, "/policies/p/constraints", appendBody+trailer)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "data after the JSON value") {
			t.Fatalf("append with %q after the body = %d: %s", trailer, rec.Code, rec.Body.String())
		}
	}
	if rec := send(http.MethodPost, "/policies/p/constraints", appendBody+"\r\n"); rec.Code != http.StatusOK {
		t.Fatalf("append with a trailing newline = %d: %s", rec.Code, rec.Body.String())
	}
	var info minup.PolicyInfo
	if err := json.Unmarshal(get(t, h, "/policies/p").Body.Bytes(), &info); err != nil || info.Version != 2 {
		t.Fatalf("policy after one accepted append: version %d, err %v", info.Version, err)
	}
}
