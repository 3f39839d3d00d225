// The flight recorder: an always-on, bounded-memory ring of one compact
// record per served request and per async catalog refresh, plus an anomaly
// path that writes the request's solver event log (and span tree, when the
// request was traced) of slow/errored/degraded/panicked work to a rotating,
// size-capped dump directory for post-hoc Perfetto analysis.
//
// Cost model: Begin/End on the happy path are one allocation (the
// ActiveFlight, which holds the request's record and its event log), two
// short critical sections on the recorder mutex, and one histogram
// observe. The log takes a pooled buffer on its first event, so a request
// that runs no solve takes none and steady-state capture allocates
// nothing. Everything heavier (JSON encoding, file writes, dump rotation)
// happens only on the anomaly branch.
package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FlightStats is the compact per-solve work summary carried by a flight
// record — the fields an SRE reads first when triaging a slow request.
type FlightStats struct {
	Tries       int   `json:"tries,omitempty"`
	FailedTries int   `json:"failed_tries,omitempty"`
	Collapses   int   `json:"collapses,omitempty"`
	TrySteps    int   `json:"try_steps,omitempty"`
	SolveUS     int64 `json:"solve_us,omitempty"`
}

// FlightRecord is one completed unit of work: an HTTP request (Kind "http")
// or an async catalog refresh job (Kind "refresh"). Records are stored by
// value in the recorder's ring, so keeping one costs no allocation.
type FlightRecord struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	ID     string `json:"id,omitempty"` // request id for http records
	Route  string `json:"route"`
	Method string `json:"method,omitempty"`
	Status int    `json:"status,omitempty"`

	// Policy identity, for /policies/* requests and refresh jobs.
	Policy  string `json:"policy,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	Version uint64 `json:"version,omitempty"`
	// Outcome is the refresh disposition: completed, stale, failed, or
	// panic.
	Outcome string `json:"outcome,omitempty"`

	Start       time.Time `json:"start"`
	DurationUS  int64     `json:"duration_us"`
	QueueWaitUS int64     `json:"queue_wait_us,omitempty"`

	Shed          bool   `json:"shed,omitempty"`
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	Panicked      bool   `json:"panicked,omitempty"`
	CacheHit      bool   `json:"cache_hit,omitempty"`

	TraceID string      `json:"trace_id,omitempty"`
	Err     string      `json:"err,omitempty"`
	Stats   FlightStats `json:"stats"`

	// Dump is the anomaly dump file name under the recorder's dump
	// directory, set when this record triggered a capture.
	Dump string `json:"dump,omitempty"`

	// Active marks an in-flight record in snapshots (DurationUS is the
	// elapsed time so far). Never set on ring records.
	Active bool `json:"active,omitempty"`
}

// FlightOptions tunes a recorder. The zero value is usable: a 256-record
// ring with anomaly dumping disabled (no DumpDir).
type FlightOptions struct {
	// Size is the ring capacity in records (default 256).
	Size int
	// DumpDir, when non-empty, enables anomaly dumps: each anomalous
	// record is written there as a Perfetto-loadable JSON file.
	DumpDir string
	// DumpCapBytes bounds the dump directory's total size; after every
	// write the oldest dumps are pruned until the total fits (default
	// 32 MiB; the newest dump always survives).
	DumpCapBytes int64
	// SlowThreshold marks a request anomalous on duration alone (0
	// disables the slow trigger; errors/degradation/panics still fire).
	SlowThreshold time.Duration
	// SLO, when non-nil, is rendered by the /debug/requests handler
	// alongside the recorder's own state.
	SLO *SLOTracker
	// Now replaces time.Now for record timestamps (tests).
	Now func() time.Time
}

const (
	// flightEvents caps the solver events a flight logs; the overflow is
	// counted, not stored.
	flightEvents = 4096
	// anomalyKeep is the capacity of the separate recent-anomalies ring,
	// so a burst of healthy traffic cannot evict the one record being
	// triaged.
	anomalyKeep = 64
)

// flightBuf is the pooled buffer of a flight's event log.
type flightBuf [flightEvents]LoggedEvent

// FlightRecorder is the ring. Construct with NewFlightRecorder; all methods
// are safe for concurrent use.
type FlightRecorder struct {
	opt FlightOptions
	seq atomic.Uint64

	mu        sync.Mutex
	ring      []FlightRecord // capacity opt.Size; index total%Size
	total     uint64
	active    map[uint64]*ActiveFlight
	anomalies []FlightRecord // capacity anomalyKeep
	anomTotal uint64
	routes    map[string]*Histogram

	bufs sync.Pool // *flightBuf

	dumpMu       sync.Mutex
	dumpsWritten atomic.Uint64
	dumpsPruned  atomic.Uint64
	dumpErrors   atomic.Uint64
}

// NewFlightRecorder builds a recorder, preallocating the ring so steady
// state recording never grows memory.
func NewFlightRecorder(opt FlightOptions) *FlightRecorder {
	if opt.Size <= 0 {
		opt.Size = 256
	}
	if opt.DumpCapBytes <= 0 {
		opt.DumpCapBytes = 32 << 20
	}
	f := &FlightRecorder{
		opt:       opt,
		ring:      make([]FlightRecord, opt.Size),
		active:    make(map[uint64]*ActiveFlight),
		anomalies: make([]FlightRecord, anomalyKeep),
		routes:    make(map[string]*Histogram),
	}
	f.bufs.New = func() any { return new(flightBuf) }
	return f
}

func (f *FlightRecorder) now() time.Time {
	if f.opt.Now != nil {
		return f.opt.Now()
	}
	return time.Now()
}

// ---------------------------------------------------------------------------
// Recording.

// ActiveFlight is one in-flight request's record, opened by Begin, carried
// through the request context and completed by End. Begin writes the
// record's identity (Seq, Kind, ID, Route, Method, Start), which
// /debug/requests reads while the request runs; the request's own goroutine
// writes every other field, the event log and the span until End. Writing
// an identity field, or the whole record, after Begin races with that
// reader.
type ActiveFlight struct {
	FlightRecord
	log  EventLog
	span *Span
}

// Begin opens a flight for one HTTP request and registers it as active.
func (f *FlightRecorder) Begin(route, method, id string) *ActiveFlight {
	a := &ActiveFlight{FlightRecord: FlightRecord{
		Seq: f.seq.Add(1), Kind: "http", ID: id, Route: route, Method: method, Start: f.now(),
	}}
	a.log = EventLog{start: a.Start, now: f.opt.Now, bufs: &f.bufs}
	f.mu.Lock()
	f.active[a.Seq] = a
	f.mu.Unlock()
	return a
}

// Events returns the flight's event log, to pass as core.Options.Events:
// capped at 4096 events, stamped from the request's start. If the flight
// ends healthy the events are discarded, if it ends anomalous they go into
// the dump.
func (a *ActiveFlight) Events() *EventLog { return &a.log }

// SetSpan attaches the request's root span; an anomalous flight dumps the
// finished span tree alongside the event stream.
func (a *ActiveFlight) SetSpan(sp *Span) { a.span = sp }

// End completes the flight: its record enters the ring, and — when the
// record trips an anomaly trigger — the logged events and span tree are
// written to the dump directory. The log's buffer returns to the pool
// either way.
func (f *FlightRecorder) End(a *ActiveFlight) {
	if f.isAnomaly(&a.FlightRecord) {
		a.Dump = f.writeDump(&a.FlightRecord, &a.log, a.span)
	}
	if a.log.events != nil {
		f.bufs.Put((*flightBuf)(a.log.events[:flightEvents]))
		a.log.events = nil
	}

	f.mu.Lock()
	delete(f.active, a.Seq)
	f.push(a.FlightRecord)
	f.mu.Unlock()
}

// Record stores one already-completed unit of work (refresh jobs; anything
// without a Begin/End window). Identity fields are the caller's; anomalous
// records are dumped record-only (no event stream exists after the fact).
func (f *FlightRecorder) Record(rec FlightRecord) {
	rec.Seq = f.seq.Add(1)
	if rec.Start.IsZero() {
		rec.Start = f.now()
	}
	if f.isAnomaly(&rec) {
		rec.Dump = f.writeDump(&rec, nil, nil)
	}
	f.mu.Lock()
	f.push(rec)
	f.mu.Unlock()
}

// push stores rec in the ring (and the anomaly side-ring) and observes its
// latency. Caller holds f.mu.
func (f *FlightRecorder) push(rec FlightRecord) {
	f.ring[f.total%uint64(len(f.ring))] = rec
	f.total++
	if rec.Dump != "" || f.isAnomaly(&rec) {
		f.anomalies[f.anomTotal%uint64(len(f.anomalies))] = rec
		f.anomTotal++
	}
	h := f.routes[rec.Route]
	if h == nil {
		h = NewHistogram(DurationBucketsUS)
		f.routes[rec.Route] = h
	}
	h.Observe(uint64(rec.DurationUS))
}

// isAnomaly implements the capture triggers: panicked, degraded, a 5xx,
// error text on a request that did not end in a 4xx, a failed refresh, or
// slower than the threshold. A 4xx is the client's mistake whatever its
// text says, and a shed request is the designed overload posture: both are
// recorded but not anomalous, so neither a client's bad requests nor an
// overload storm thrash the dump directory.
func (f *FlightRecorder) isAnomaly(rec *FlightRecord) bool {
	switch {
	case rec.Shed:
		return false
	case rec.Panicked, rec.Degraded, rec.Status >= 500, rec.Outcome == "failed", rec.Outcome == "panic":
		return true
	case f.opt.SlowThreshold > 0 && rec.DurationUS > f.opt.SlowThreshold.Microseconds():
		return true
	}
	return rec.Err != "" && rec.Status < 400
}

// ---------------------------------------------------------------------------
// Anomaly dumps.

// flightDump is the on-disk shape of one anomaly: a Chrome trace-event
// object (Perfetto loads it directly; the extra keys are ignored) carrying
// the flight record, the logged solver events as slices, and the span tree
// when the request was traced.
type flightDump struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Record          FlightRecord  `json:"record"`
	Spans           *SpanNode     `json:"spans,omitempty"`
	TruncatedEvents int           `json:"truncated_events,omitempty"`
}

// writeDump serializes one anomaly to the dump directory and prunes old
// dumps past the byte cap. Returns the file name, or "" when dumping is
// disabled or failed (the record still enters the ring).
func (f *FlightRecorder) writeDump(rec *FlightRecord, log *EventLog, span *Span) string {
	if f.opt.DumpDir == "" {
		return ""
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	if err := os.MkdirAll(f.opt.DumpDir, 0o755); err != nil {
		f.dumpErrors.Add(1)
		return ""
	}
	dump := flightDump{
		DisplayTimeUnit: "ms",
		Record:          *rec,
	}
	dump.TraceEvents = append(dump.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "minupd flight " + rec.Route},
	})
	reqDur := rec.DurationUS
	dump.TraceEvents = append(dump.TraceEvents, chromeEvent{
		Name: rec.Route, Ph: "X", TS: 0, Dur: &reqDur, PID: 1, TID: 1,
		Args: map[string]string{
			"request_id": rec.ID,
			"status":     strconv.Itoa(rec.Status),
			"err":        rec.Err,
		},
	})
	if span != nil {
		node := span.Node(rec.Start)
		dump.Spans = &node
		span.Walk(func(s *Span) {
			end := s.EndTime()
			if end.IsZero() {
				end = s.StartTime()
			}
			dur := end.Sub(s.StartTime()).Microseconds()
			dump.TraceEvents = append(dump.TraceEvents, chromeEvent{
				Name: s.Name(), Ph: "X",
				TS:  s.StartTime().Sub(rec.Start).Microseconds(),
				Dur: &dur, PID: 1, TID: 2,
			})
		})
	}
	var events []LoggedEvent
	if log != nil {
		events, dump.TruncatedEvents = log.Events(), log.Dropped()
	}
	for i, e := range events {
		// Each event becomes a slice from the previous event's timestamp:
		// the stream reads as contiguous solver work in Perfetto.
		ts := int64(0)
		if i > 0 {
			ts = events[i-1].At.Microseconds()
		}
		dur := e.At.Microseconds() - ts
		dump.TraceEvents = append(dump.TraceEvents, chromeEvent{
			Name: e.Kind.String(), Ph: "X", TS: ts, Dur: &dur, PID: 1, TID: 3,
			Args: map[string]string{
				"attr":  strconv.FormatInt(int64(e.Attr), 10),
				"level": strconv.FormatUint(e.Level, 10),
				"scc":   strconv.FormatInt(int64(e.SCC), 10),
			},
		})
	}
	name := fmt.Sprintf("anomaly-%s-%08d.json", rec.Start.UTC().Format("20060102T150405.000000000"), rec.Seq)
	if err := writeJSONFile(filepath.Join(f.opt.DumpDir, name), dump); err != nil {
		f.dumpErrors.Add(1)
		return ""
	}
	f.dumpsWritten.Add(1)
	f.pruneLocked()
	return name
}

// FinalDump writes the whole recorder snapshot (recent ring, anomalies,
// per-route latency) to the dump directory — called at drain time so the
// last moments before a shutdown survive the process.
func (f *FlightRecorder) FinalDump(reason string) (string, error) {
	if f.opt.DumpDir == "" {
		return "", nil
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	if err := os.MkdirAll(f.opt.DumpDir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("final-%s-%s.json", reason, f.now().UTC().Format("20060102T150405.000000000"))
	if err := writeJSONFile(filepath.Join(f.opt.DumpDir, name), f.Snapshot()); err != nil {
		return "", err
	}
	f.dumpsWritten.Add(1)
	f.pruneLocked()
	return name, nil
}

// writeJSONFile writes v as indented JSON via a temp file + rename, so a
// crash mid-dump never leaves a torn file for Perfetto to choke on.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// pruneLocked deletes the oldest dump files until the directory's total
// size fits DumpCapBytes; the newest file always survives even if it alone
// exceeds the cap. Caller holds dumpMu.
func (f *FlightRecorder) pruneLocked() {
	entries, err := os.ReadDir(f.opt.DumpDir)
	if err != nil {
		return
	}
	type dumpFile struct {
		name string
		size int64
		mod  time.Time
	}
	var files []dumpFile
	var total int64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, dumpFile{e.Name(), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].name < files[j].name
	})
	for len(files) > 1 && total > f.opt.DumpCapBytes {
		if os.Remove(filepath.Join(f.opt.DumpDir, files[0].name)) == nil {
			f.dumpsPruned.Add(1)
		}
		total -= files[0].size
		files = files[1:]
	}
}

// ---------------------------------------------------------------------------
// Introspection.

// RouteLatency is one route's latency distribution in a snapshot.
type RouteLatency struct {
	Count   uint64            `json:"count"`
	P50US   uint64            `json:"p50_us"`
	P99US   uint64            `json:"p99_us"`
	Buckets HistogramSnapshot `json:"buckets"`
}

// FlightSnapshot is the JSON shape of GET /debug/requests.
type FlightSnapshot struct {
	Total           uint64                  `json:"total_records"`
	AnomalyTotal    uint64                  `json:"total_anomalies"`
	Active          []FlightRecord          `json:"active"`
	Recent          []FlightRecord          `json:"recent"`
	RecentAnomalies []FlightRecord          `json:"recent_anomalies"`
	Routes          map[string]RouteLatency `json:"routes"`
	DumpDir         string                  `json:"dump_dir,omitempty"`
	DumpsWritten    uint64                  `json:"dumps_written"`
	DumpsPruned     uint64                  `json:"dumps_pruned"`
	DumpErrors      uint64                  `json:"dump_errors,omitempty"`
}

// Snapshot copies the recorder state: active flights, the recent ring and
// anomaly ring newest-first, and per-route latency distributions.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	now := f.now()
	f.mu.Lock()
	snap := FlightSnapshot{
		Total:           f.total,
		AnomalyTotal:    f.anomTotal,
		Recent:          ringCopy(f.ring, f.total),
		RecentAnomalies: ringCopy(f.anomalies, f.anomTotal),
		Routes:          make(map[string]RouteLatency, len(f.routes)),
		DumpDir:         f.opt.DumpDir,
		DumpsWritten:    f.dumpsWritten.Load(),
		DumpsPruned:     f.dumpsPruned.Load(),
		DumpErrors:      f.dumpErrors.Load(),
	}
	for _, a := range f.active {
		// Only the fields Begin wrote: the request's goroutine is writing
		// the others.
		snap.Active = append(snap.Active, FlightRecord{
			Seq: a.Seq, Kind: a.Kind, ID: a.ID, Route: a.Route,
			Method: a.Method, Start: a.Start,
			DurationUS: now.Sub(a.Start).Microseconds(), Active: true,
		})
	}
	for route, h := range f.routes {
		hs := h.Snapshot()
		snap.Routes[route] = RouteLatency{
			Count:   hs.Count,
			P50US:   hs.Quantile(0.50),
			P99US:   hs.Quantile(0.99),
			Buckets: hs,
		}
	}
	f.mu.Unlock()
	sort.Slice(snap.Active, func(i, j int) bool { return snap.Active[i].Seq < snap.Active[j].Seq })
	return snap
}

// ringCopy returns the ring's live records newest-first.
func ringCopy(ring []FlightRecord, total uint64) []FlightRecord {
	n := total
	if n > uint64(len(ring)) {
		n = uint64(len(ring))
	}
	out := make([]FlightRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, ring[(total-1-i)%uint64(len(ring))])
	}
	return out
}

// ServeHTTP renders the recorder as JSON (?format=json) or a minimal HTML
// dashboard in the spirit of x/net/trace: active requests, SLO burn rates,
// per-route latency, recent anomalies with their dump files, and the recent
// request ring.
func (f *FlightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := f.Snapshot()
	var slo []SLOStatus
	if f.opt.SLO != nil {
		slo = f.opt.SLO.Status()
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			FlightSnapshot
			SLO []SLOStatus `json:"slo,omitempty"`
		}{snap, slo})
		return
	}
	limit := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			limit = n
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>minupd /debug/requests</title>"+
		"<style>body{font-family:monospace;margin:1em}table{border-collapse:collapse;margin:0.5em 0}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:left}th{background:#eee}"+
		".bad{background:#fdd}.warn{background:#ffd}</style></head><body>")
	fmt.Fprintf(w, "<h1>/debug/requests</h1><p>%d records total, %d anomalies, %d active; dumps: %d written, %d pruned (dir %s)</p>",
		snap.Total, snap.AnomalyTotal, len(snap.Active), snap.DumpsWritten, snap.DumpsPruned, html.EscapeString(snap.DumpDir))
	fmt.Fprintf(w, `<p><a href="?format=json">json</a></p>`)

	if len(slo) > 0 {
		fmt.Fprintf(w, "<h2>SLOs</h2><table><tr><th>route</th><th>p99 target</th><th>avail target</th>"+
			"<th>req 5m/1h</th><th>avail burn 5m/1h</th><th>latency burn 5m/1h</th></tr>")
		for _, st := range slo {
			cls := ""
			if st.AvailBurn5m >= 1 || st.LatencyBurn5m >= 1 {
				cls = ` class="bad"`
			}
			fmt.Fprintf(w, "<tr%s><td>%s</td><td>%dµs</td><td>%.3f%%</td><td>%d / %d</td><td>%.2f / %.2f</td><td>%.2f / %.2f</td></tr>",
				cls, html.EscapeString(st.Route), st.P99TargetUS, st.Availability*100,
				st.Requests5m, st.Requests1h, st.AvailBurn5m, st.AvailBurn1h,
				st.LatencyBurn5m, st.LatencyBurn1h)
		}
		fmt.Fprintf(w, "</table>")
	}

	routeNames := make([]string, 0, len(snap.Routes))
	for name := range snap.Routes {
		routeNames = append(routeNames, name)
	}
	sort.Strings(routeNames)
	fmt.Fprintf(w, "<h2>Routes</h2><table><tr><th>route</th><th>count</th><th>p50</th><th>p99</th></tr>")
	for _, name := range routeNames {
		rl := snap.Routes[name]
		fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%dµs</td><td>%dµs</td></tr>",
			html.EscapeString(name), rl.Count, rl.P50US, rl.P99US)
	}
	fmt.Fprintf(w, "</table>")

	writeTable := func(title string, recs []FlightRecord) {
		fmt.Fprintf(w, "<h2>%s</h2><table><tr><th>seq</th><th>kind</th><th>route</th><th>id/policy</th>"+
			"<th>status</th><th>dur</th><th>flags</th><th>err</th><th>dump</th></tr>", title)
		for i, rec := range recs {
			if i >= limit {
				fmt.Fprintf(w, "<tr><td colspan=9>… %d more (?n=)</td></tr>", len(recs)-limit)
				break
			}
			flags := ""
			if rec.Shed {
				flags += "shed "
			}
			if rec.Degraded {
				flags += "degraded(" + rec.DegradeReason + ") "
			}
			if rec.Panicked {
				flags += "panic "
			}
			if rec.CacheHit {
				flags += "hit "
			}
			if rec.Active {
				flags += "active "
			}
			if rec.Outcome != "" {
				flags += rec.Outcome + " "
			}
			ident := rec.ID
			if rec.Policy != "" {
				ident = rec.Policy + " v" + strconv.FormatUint(rec.Version, 10)
			}
			cls := ""
			if rec.Panicked || rec.Err != "" || rec.Status >= 500 {
				cls = ` class="bad"`
			} else if rec.Degraded {
				cls = ` class="warn"`
			}
			fmt.Fprintf(w, "<tr%s><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%dµs</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				cls, rec.Seq, rec.Kind, html.EscapeString(rec.Route), html.EscapeString(ident),
				rec.Status, rec.DurationUS, html.EscapeString(flags),
				html.EscapeString(rec.Err), html.EscapeString(rec.Dump))
		}
		fmt.Fprintf(w, "</table>")
	}
	if len(snap.Active) > 0 {
		writeTable("Active", snap.Active)
	}
	writeTable("Recent anomalies", snap.RecentAnomalies)
	writeTable("Recent", snap.Recent)
	fmt.Fprintf(w, "</body></html>")
}
