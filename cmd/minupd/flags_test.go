package main

import (
	"path/filepath"
	"strings"
	"testing"

	"minup/internal/wal"
)

// TestParseFlags covers minupd's command line: no arguments give today's
// defaults, and each refused value names its flag.
func TestParseFlags(t *testing.T) {
	def := defaultConfig()
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "defaults"},
		{name: "unknown fsync", args: []string{"-fsync", "sometimes"}, wantErr: "-fsync"},
		{name: "bad slo", args: []string{"-slo", "policy.solve:p99=soon"}, wantErr: "p99"},
		{name: "repeated slo route", args: []string{"-slo", "policy.solve:p99=250ms;policy.solve:avail=99.9"}, wantErr: `"policy.solve"`},
		{name: "bad fault", args: []string{"-fault", "solve.step:explode:1"}, wantErr: "explode"},
		{name: "zero solve timeout", args: []string{"-solve-timeout", "0"}, wantErr: "-solve-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseFlags(%q) error = %v, want one naming %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o.maxInflight != def.maxInflight || o.maxQueue != def.maxQueue || o.queueWait != def.queueWait ||
				o.solveTimeout != def.solveTimeout || o.cluster.maxReplicaLag != def.cluster.maxReplicaLag {
				t.Fatalf("serving knobs %+v differ from defaultConfig %+v", o.config, def)
			}
			if o.addr != ":8080" || o.debugAddr != "127.0.0.1:6060" || o.walSync != wal.SyncAlways ||
				o.dumpDir != filepath.Join("artifacts", "anomalies") {
				t.Fatalf("process wiring = %+v", o)
			}
			if o.fault != nil || o.slo == nil || o.flight == nil || o.peers.enabled() {
				t.Fatalf("fault %v, slo %v, flight %v, cluster %v: want no injector, the default SLO, a recorder, standalone",
					o.fault, o.slo, o.flight, o.peers.enabled())
			}
		})
	}
}
