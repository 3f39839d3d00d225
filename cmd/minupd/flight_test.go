package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"minup/internal/obs"
)

// debugRequestsJSON fetches the flight recorder's JSON view the way the
// debug listener serves it.
func debugRequestsJSON(t *testing.T, f *obs.FlightRecorder) (obs.FlightSnapshot, []obs.SLOStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/requests?format=json", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests = %d", rec.Code)
	}
	var view struct {
		obs.FlightSnapshot
		SLO []obs.SLOStatus `json:"slo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("/debug/requests JSON: %v", err)
	}
	return view.FlightSnapshot, view.SLO
}

// TestDegradedSolveFlightRecordAndSLOBurn is the acceptance scenario end to
// end: a request forced to degrade by a fault spec must (1) show up in
// /debug/requests as a degraded anomaly, (2) leave a Perfetto-loadable dump
// on disk, and (3) move its route's availability burn gauge on the next
// scrape.
func TestDegradedSolveFlightRecordAndSLOBurn(t *testing.T) {
	cfg := slowCfg(t, 30*time.Millisecond, 10*time.Millisecond)
	dumpDir := t.TempDir()
	cfg.flight = obs.NewFlightRecorder(obs.FlightOptions{DumpDir: dumpDir, SLO: cfg.slo})
	srv, h, logBuf := newTestServerCfg(t, cfg)
	putCold(t, srv, h, "fig2")

	rec := get(t, h, "/policies/fig2/solve")
	decodeDegraded(t, rec, "deadline")

	// (1) The degraded request is in the flight ring and the anomaly ring,
	// next to the PUT and its failed refresh.
	snap, slo := debugRequestsJSON(t, cfg.flight)
	var solves []obs.FlightRecord
	for _, fr := range snap.RecentAnomalies {
		if fr.Route == "policy.solve" {
			solves = append(solves, fr)
		}
	}
	if snap.Total != 3 || len(solves) != 1 {
		t.Fatalf("flight snapshot total=%d solve anomalies=%d, want 3/1", snap.Total, len(solves))
	}
	fr := solves[0]
	if !fr.Degraded || fr.DegradeReason != "deadline" || fr.Policy != "fig2" {
		t.Fatalf("anomaly record = %+v", fr)
	}
	if fr.Status != http.StatusOK {
		t.Fatalf("degraded record status = %d, want 200", fr.Status)
	}
	if fr.ID != rec.Header().Get("X-Request-Id") {
		t.Fatalf("flight record id %q != response id %q", fr.ID, rec.Header().Get("X-Request-Id"))
	}

	// (2) The anomaly dump exists on disk and is Perfetto-loadable: valid
	// JSON with a traceEvents array that carries the captured solver events.
	if fr.Dump == "" {
		t.Fatal("degraded record carries no dump file name")
	}
	data, err := os.ReadFile(filepath.Join(dumpDir, fr.Dump))
	if err != nil {
		t.Fatalf("anomaly dump missing: %v", err)
	}
	var dump struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Record      obs.FlightRecord  `json:"record"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	// Metadata + the request slice at minimum; the fault spec delays solver
	// steps, so the cold solve's event log saw events before the
	// deadline hit.
	if len(dump.TraceEvents) < 3 {
		t.Fatalf("dump traceEvents = %d entries, want the request plus solver events", len(dump.TraceEvents))
	}
	if dump.Record.ID != fr.ID || !dump.Record.Degraded {
		t.Fatalf("dump record = %+v", dump.Record)
	}

	// (3) The availability burn moved: the degraded answer burns budget even
	// though the client saw a 200.
	var solveSLO *obs.SLOStatus
	for i := range slo {
		if slo[i].Route == "policy.solve" {
			solveSLO = &slo[i]
		}
	}
	if solveSLO == nil {
		t.Fatalf("no policy.solve SLO in /debug/requests: %+v", slo)
	}
	if solveSLO.AvailBurn5m <= 0 || solveSLO.Requests5m != 1 {
		t.Fatalf("availability burn did not move: %+v", *solveSLO)
	}

	// The burn gauges reach the Prometheus scrape (handleMetrics samples
	// them on every read).
	body := get(t, h, "/metrics?format=prometheus").Body.String()
	found := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "slo_policy_solve_avail_burn_5m_milli ") {
			found = true
			if strings.TrimPrefix(line, "slo_policy_solve_avail_burn_5m_milli ") == "0" {
				t.Fatalf("scraped burn gauge still zero: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("Prometheus scrape missing slo_policy_solve_avail_burn_5m_milli:\n%s", body)
	}

	// The access log agrees with the flight record.
	if log := logBuf.String(); !strings.Contains(log, `"degraded":true`) {
		t.Fatalf("access log does not mark the degraded request:\n%s", log)
	}
}

// TestShedRequestRecordedNotDumped pins the overload posture: a shed request
// is visible in the ring with its shed flag and queue-wait, but it is not an
// anomaly — an overload storm must not thrash the dump directory.
func TestShedRequestRecordedNotDumped(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 0 // no waiting: the second concurrent request sheds
	dumpDir := t.TempDir()
	cfg.flight = obs.NewFlightRecorder(obs.FlightOptions{DumpDir: dumpDir, SLO: cfg.slo})
	srv, h, logBuf := newTestServerCfg(t, cfg)

	// Hold the only slot so the next request sheds instantly.
	srv.gate.sem <- struct{}{}
	rec := get(t, h, "/policies/fig2/solve")
	<-srv.gate.sem
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated solve = %d, want 503", rec.Code)
	}

	snap, _ := debugRequestsJSON(t, cfg.flight)
	if snap.Total != 1 {
		t.Fatalf("flight total = %d, want 1", snap.Total)
	}
	fr := snap.Recent[0]
	if !fr.Shed || fr.Status != http.StatusServiceUnavailable {
		t.Fatalf("shed record = %+v", fr)
	}
	if len(snap.RecentAnomalies) != 0 || fr.Dump != "" {
		t.Fatalf("shed request treated as anomaly: anomalies=%d dump=%q", len(snap.RecentAnomalies), fr.Dump)
	}
	if entries, err := os.ReadDir(dumpDir); err != nil || len(entries) != 0 {
		t.Fatalf("dump dir not empty after a shed: %v, %v", entries, err)
	}
	if log := logBuf.String(); !strings.Contains(log, `"shed":true`) {
		t.Fatalf("access log does not mark the shed:\n%s", log)
	}
}

// TestClientErrorsNotDumped: a 4xx is the client's mistake, whatever error
// text the handler attached, so reads of a missing policy are recorded with
// that text but write no anomaly dump.
func TestClientErrorsNotDumped(t *testing.T) {
	cfg := defaultConfig()
	dumpDir := t.TempDir()
	cfg.flight = obs.NewFlightRecorder(obs.FlightOptions{DumpDir: dumpDir, SLO: cfg.slo})
	_, h, _ := newTestServerCfg(t, cfg)
	for i := 0; i < 5; i++ {
		if rec := get(t, h, "/policies/missing/solve"); rec.Code != http.StatusNotFound {
			t.Fatalf("GET of a missing policy = %d, want 404", rec.Code)
		}
	}
	snap, _ := debugRequestsJSON(t, cfg.flight)
	if snap.Total != 5 || snap.Recent[0].Err == "" || snap.Recent[0].Status != http.StatusNotFound {
		t.Fatalf("flight total = %d, newest = %+v: want five 404s with their error text", snap.Total, snap.Recent[0])
	}
	if len(snap.RecentAnomalies) != 0 || snap.DumpsWritten != 0 {
		t.Fatalf("client errors treated as anomalies: %d anomalies, %d dumps", len(snap.RecentAnomalies), snap.DumpsWritten)
	}
	if entries, err := os.ReadDir(dumpDir); err != nil || len(entries) != 0 {
		t.Fatalf("dump dir not empty after 404s: %v, %v", entries, err)
	}
}

// TestPolicyGetDeleteFlightIdentity: a GET and a DELETE of a policy leave
// flight records that name the policy and its shard, as its solves and
// writes do, so /debug/requests and the dumps show whose requests they
// were.
func TestPolicyGetDeleteFlightIdentity(t *testing.T) {
	cfg := defaultConfig()
	cfg.flight = obs.NewFlightRecorder(obs.FlightOptions{})
	srv, h, _ := newTestServerCfg(t, cfg)
	// Off shard 0 when there are several, so an unset shard shows.
	name := "p0"
	for i := 1; srv.cat.Shards() > 1 && srv.cat.ShardOf(name) == 0; i++ {
		name = "p" + strconv.Itoa(i)
	}
	putWarm(t, h, name)
	if rec := get(t, h, "/policies/"+name); rec.Code != http.StatusOK {
		t.Fatalf("GET /policies/%s = %d", name, rec.Code)
	}
	if rec := policyReq(t, h, http.MethodDelete, "/policies/"+name, nil, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("DELETE /policies/%s = %d: %s", name, rec.Code, rec.Body.String())
	}
	snap, _ := debugRequestsJSON(t, cfg.flight)
	seen := map[string]bool{}
	for _, fr := range snap.Recent {
		if fr.Kind != "http" || (fr.Method != http.MethodGet && fr.Method != http.MethodDelete) {
			continue
		}
		seen[fr.Method] = true
		if fr.Policy != name || fr.Shard != srv.cat.ShardOf(name) {
			t.Errorf("%s record = %+v, want policy %q on shard %d", fr.Method, fr, name, srv.cat.ShardOf(name))
		}
	}
	if !seen[http.MethodGet] || !seen[http.MethodDelete] {
		t.Fatalf("flight ring lacks the GET or the DELETE: %+v", snap.Recent)
	}
}

// TestRefreshRecordsInFlightRing checks the async side of the recorder: a
// policy write's background refresh lands in the ring as a "refresh" record
// with the policy identity and a terminal outcome.
func TestRefreshRecordsInFlightRing(t *testing.T) {
	cfg := defaultConfig()
	flight := obs.NewFlightRecorder(obs.FlightOptions{})
	cfg.flight = flight
	_, h, _ := newTestServerCfg(t, cfg)

	// An async PUT (no ?wait) answers immediately and hands the compile+solve
	// to the background refresh pipeline — that job must leave a record.
	rec := policyReq(t, h, http.MethodPut, "/policies/p1",
		&policyRequest{Lattice: testPolicyLattice, Constraints: testPolicyCons}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("PUT /policies/p1 = %d: %s", rec.Code, rec.Body.String())
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := flight.Snapshot()
		var refresh *obs.FlightRecord
		for i := range snap.Recent {
			if snap.Recent[i].Kind == "refresh" {
				refresh = &snap.Recent[i]
			}
		}
		if refresh != nil {
			if refresh.Route != "catalog.refresh" || refresh.Policy != "p1" {
				t.Fatalf("refresh record = %+v", *refresh)
			}
			if refresh.Outcome == "" {
				t.Fatalf("refresh record has no outcome: %+v", *refresh)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no refresh record in the ring: %+v", snap.Recent)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
