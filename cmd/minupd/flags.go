package main

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"minup"
)

// options is what main runs with: the serving config newServer takes, plus
// the process wiring around it, as parsed and checked by parseFlags.
type options struct {
	config
	dataDir, addr, debugAddr, faultSpec, dumpDir string

	walSync    minup.WALSyncPolicy
	shards     int
	faultAdmin bool
	peers      clusterFlags
}

// parseFlags declares minupd's flags on their own set, parses args, and
// validates the values into the options main runs with.
func parseFlags(args []string) (options, error) {
	var o options
	def := defaultConfig()
	fs := flag.NewFlagSet("minupd", flag.ContinueOnError)
	fs.StringVar(&o.dataDir, "data-dir", "", "policy-catalog data directory; empty keeps the catalog in memory only")
	fsyncPolicy := fs.String("fsync", "always", "catalog WAL fsync policy: always|never")
	fs.IntVar(&o.shards, "shards", 0, "policy-catalog shard count (0 = GOMAXPROCS); an existing data directory's count always wins")
	fs.StringVar(&o.addr, "addr", ":8080", "service listen address")
	fs.StringVar(&o.debugAddr, "debug-addr", "127.0.0.1:6060", "debug listen address for /debug/vars and /debug/pprof (empty to disable)")
	fs.IntVar(&o.maxInflight, "max-inflight", def.maxInflight, "max concurrent gated requests (policy solves and traces, appends, ?wait=1 writes) before queueing")
	fs.IntVar(&o.maxQueue, "max-queue", def.maxQueue, "max requests waiting for a solve slot; beyond this, shed with 503")
	fs.DurationVar(&o.queueWait, "queue-wait", def.queueWait, "max time a queued request waits for a slot before being shed")
	fs.DurationVar(&o.solveTimeout, "solve-timeout", def.solveTimeout, "per-request solve budget (ceiling for ?timeout_ms=)")
	fs.StringVar(&o.faultSpec, "fault", "", "chaos-testing fault spec, e.g. 'solve.step:delay:%1:5ms;pool.get:panic:3' (see internal/fault)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for probabilistic fault rules")
	fs.BoolVar(&o.faultAdmin, "fault-admin", false, "expose POST/GET /debug/fault on the debug listener to rearm the injector at runtime (chaos testing; implies an installed, initially unarmed injector)")
	flightSize := fs.Int("flight-size", 256, "flight-recorder ring capacity (records kept for /debug/requests)")
	fs.StringVar(&o.dumpDir, "flight-dump-dir", "auto", "anomaly dump directory; 'auto' puts it under -data-dir (or artifacts/), empty disables dumps")
	flightDumpCap := fs.Int64("flight-dump-cap", 32<<20, "max total bytes of anomaly dumps before the oldest are pruned")
	flightSlow := fs.Duration("flight-slow", time.Second, "duration past which a request is dumped as a slow anomaly (0 disables the slow trigger)")
	sloSpec := fs.String("slo", defaultSLOSpec, "per-route SLOs, 'route:p99=<dur>,avail=<pct>;...' (empty disables SLO tracking)")
	fs.IntVar(&o.peers.nodeID, "cluster-node", 0, "this node's id within -cluster-peers (cluster mode)")
	fs.StringVar(&o.peers.listen, "cluster-listen", "", "replication listen address; empty uses this node's -cluster-peers entry")
	fs.StringVar(&o.peers.peers, "cluster-peers", "", "full cluster membership as 'id=host:port,...' including this node (enables cluster mode)")
	fs.StringVar(&o.peers.httpAddr, "cluster-http", "", "this node's advertised HTTP base URL for write redirects, e.g. http://127.0.0.1:8080")
	fs.DurationVar(&o.peers.tick, "cluster-tick", 50*time.Millisecond, "replication heartbeat cadence")
	fs.DurationVar(&o.peers.lease, "cluster-lease", 0, "leader lease (0 = 8 ticks)")
	fs.Int64Var(&o.cluster.maxReplicaLag, "max-replica-lag", def.cluster.maxReplicaLag, "frames a follower may trail the leader before /readyz answers 503 (negative disables the check)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	switch *fsyncPolicy {
	case "always":
		o.walSync = minup.WALSyncAlways
	case "never":
		o.walSync = minup.WALSyncNever
	default:
		return options{}, fmt.Errorf("unknown -fsync policy %q (want always or never)", *fsyncPolicy)
	}
	if o.solveTimeout <= 0 {
		// Every cold solve and ?wait=1 refresh would start on an expired
		// deadline.
		return options{}, errors.New("-solve-timeout must be positive")
	}
	if o.faultSpec != "" {
		var err error
		if o.fault, err = minup.ParseFaultSpec(o.faultSpec, *faultSeed); err != nil {
			return options{}, err
		}
	} else if o.faultAdmin {
		// An installed-but-unarmed injector costs one atomic load per fault
		// point, so -fault-admin can keep it resident for later rearming.
		o.fault = minup.NewFaultInjector(*faultSeed)
	}
	if *sloSpec != "" {
		specs, err := minup.ParseSLOSpecs(*sloSpec)
		if err != nil {
			return options{}, err
		}
		o.slo = minup.NewSLOTracker(specs...)
	}
	if o.dumpDir == "auto" {
		o.dumpDir = filepath.Join("artifacts", "anomalies")
		if o.dataDir != "" {
			o.dumpDir = filepath.Join(o.dataDir, "anomalies")
		}
	}
	o.flight = minup.NewFlightRecorder(minup.FlightOptions{
		Size:          *flightSize,
		DumpDir:       o.dumpDir,
		DumpCapBytes:  *flightDumpCap,
		SlowThreshold: *flightSlow,
		SLO:           o.slo,
	})
	return o, nil
}
