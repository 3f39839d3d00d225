package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"minup/internal/fault"
	"minup/internal/obs"
)

func faultAdminDo(t *testing.T, h http.Handler, method, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "/debug/fault", rd))
	return rec
}

func TestFaultAdminRearmAndSnapshot(t *testing.T) {
	inj := fault.New(1)
	h := faultAdminHandler(inj)

	// Fresh injector: unarmed, no rules.
	rec := faultAdminDo(t, h, http.MethodGet, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body.String())
	}
	var snap struct {
		Armed bool                       `json:"armed"`
		Rules map[string]json.RawMessage `json:"rules"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Armed || len(snap.Rules) != 0 {
		t.Fatalf("fresh injector snapshot: %+v", snap)
	}

	// Arming via POST takes effect on the injector's fault points.
	rec = faultAdminDo(t, h, http.MethodPost, "solve.step:cancel:%1\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST spec = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Armed || len(snap.Rules) != 1 {
		t.Fatalf("armed snapshot: %+v", snap)
	}
	if err := inj.Hit("solve.step"); err == nil {
		t.Fatal("armed rule did not fire")
	}

	// An empty body disarms.
	rec = faultAdminDo(t, h, http.MethodPost, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("POST empty = %d: %s", rec.Code, rec.Body.String())
	}
	if err := inj.Hit("solve.step"); err != nil {
		t.Fatalf("disarmed injector still fires: %v", err)
	}

	// A bad spec is rejected and leaves the injector disarmed.
	rec = faultAdminDo(t, h, http.MethodPost, "not-a-spec")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST bad spec = %d", rec.Code)
	}
	if err := inj.Hit("solve.step"); err != nil {
		t.Fatalf("rejected spec armed the injector: %v", err)
	}

	if rec := faultAdminDo(t, h, http.MethodDelete, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d, want 405", rec.Code)
	}
}

func TestMetricsBuildInfoAndUptime(t *testing.T) {
	srv, h, _ := newTestServer(t)
	srv.reg.Info("build_info", map[string]string{
		"version":    buildVersion(),
		"go_version": "go-test",
	})
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	labels, ok := snap.Infos["build_info"]
	if !ok {
		t.Fatal("no build_info in scrape")
	}
	if labels["go_version"] != "go-test" || labels["version"] == "" {
		t.Fatalf("build_info labels: %+v", labels)
	}
	if _, ok := snap.Gauges["process.uptime_seconds"]; !ok {
		t.Fatal("no process.uptime_seconds in scrape")
	}
}
