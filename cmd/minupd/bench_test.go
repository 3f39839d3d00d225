package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minup/internal/catalog"
	"minup/internal/frontend"
	"minup/internal/frontend/depinf"
	"minup/internal/frontend/frontendtest"
	"minup/internal/obs"
	"minup/internal/workload"
)

// BenchmarkHTTPPolicySolve measures a memo hit of GET
// /policies/{name}/solve through the service's own handler: the mux, the
// middleware (request ID, flight record, latency histogram, SLO, an access
// log line into io.Discard), admission, the catalog's memoized serve and
// writing the answer. It is the rung of the layer ladder above
// BenchmarkCatalogServe, on the 48-attribute paper-shaped policy
// GeneratePolicyFamily("paper", 1, 8) builds.
func BenchmarkHTTPPolicySolve(b *testing.B) {
	fi, err := workload.GenerateFamily("paper", 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := defaultConfig()
	reg := obs.NewRegistry()
	cat, err := catalog.Open(catalog.Options{Metrics: reg, Flight: cfg.flight})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	h := newServer(cat, reg, cfg).routes(slog.New(slog.NewJSONHandler(io.Discard, nil)))
	// A waited Put leaves the version solved, so every read is a hit.
	if _, err := cat.Put(context.Background(), "bench", fi.Lattice, fi.Constraints,
		catalog.Unconditional, catalog.MutateOptions{Wait: true}); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/policies/bench/solve", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cache_hit": true`) {
		b.Fatalf("warm read = %d: %.200s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("read = %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkHTTPProblemCreate measures POST /problems/{family}?wait=1 of
// perfbench's cold_create instances (frontendtest.ColdCreate, seed 1)
// through the service's own handler on a memory-only catalog: the bounded
// body read, the frontend's Parse and Compile, the catalog's put with its
// policy-text parse, WAL record and inline compile and cold solve, and the
// ack. Each iteration creates the policy anew: the previous one is deleted
// with the timer stopped, so every ack is version 1's.
func BenchmarkHTTPProblemCreate(b *testing.B) {
	tab, rel := frontendtest.ColdCreate(b, 1)
	for _, tc := range []struct {
		family string
		inst   frontend.Instance
	}{
		{"suppress", tab},
		{"depinf", rel},
	} {
		b.Run(tc.family, func(b *testing.B) {
			body, err := frontend.Marshal(tc.inst)
			if err != nil {
				b.Fatal(err)
			}
			cfg := defaultConfig()
			reg := obs.NewRegistry()
			cat, err := catalog.Open(catalog.Options{Metrics: reg, Flight: cfg.flight})
			if err != nil {
				b.Fatal(err)
			}
			defer cat.Close()
			h := newServer(cat, reg, cfg).routes(slog.New(slog.NewJSONHandler(io.Discard, nil)))
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/problems/"+tc.family+"?wait=1", nil)
			req.Body, req.ContentLength = io.NopCloser(rd), int64(len(body))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					b.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
				}
				b.StopTimer()
				if err := cat.Delete(ctx, tc.inst.InstanceName(), catalog.Unconditional, catalog.MutateOptions{}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkSolveBody measures what the first hit of a version runs to
// write the body every later hit serves: Pairs' sort of the names plus
// solveBody, on the answer of perfbench's cold_create depinf instance, a
// 504-attribute dependency DAG.
func BenchmarkSolveBody(b *testing.B) {
	_, rel := frontendtest.ColdCreate(b, 1)
	c, err := depinf.Frontend{}.Compile(rel)
	if err != nil {
		b.Fatal(err)
	}
	cat, err := catalog.Open(catalog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	ctx := context.Background()
	if _, err := cat.Put(ctx, rel.Name, c.LatticeText, c.ConstraintText,
		catalog.Unconditional, catalog.MutateOptions{Wait: true}); err != nil {
		b.Fatal(err)
	}
	res, err := cat.Serve(ctx, rel.Name, catalog.SolveOptions{})
	if err != nil || res.Info.Attrs != 504 {
		b.Fatalf("serve: %d attributes, err %v", res.Info.Attrs, err)
	}
	a := solveAnswer{name: res.Info.Name, version: res.Info.Version, cacheHit: true, stats: newSolveStats(res.Stats)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bodySink = solveBody(a, res.Pairs())
	}
}

// bodySink keeps BenchmarkSolveBody's result live.
var bodySink []byte

// BenchmarkPolicyBody measures what a PUT runs before the catalog sees its
// texts: decodePolicyBody's bounded read and decode of the body, on
// perfbench's cold_create paper policy (402 attributes, a 35 KB body).
func BenchmarkPolicyBody(b *testing.B) {
	fi, err := workload.GenerateFamily("paper", 1, 67)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(policyRequest{Lattice: fi.Lattice, Constraints: fi.Constraints})
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPut, "/policies/bench", nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	w := httptest.NewRecorder()
	var req policyRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if req = (policyRequest{}); !decodePolicyBody(w, r, &req) {
			b.Fatalf("decode: %s", w.Body.String())
		}
	}
	if req.Constraints != fi.Constraints {
		b.Fatal("decoded constraints differ")
	}
}
