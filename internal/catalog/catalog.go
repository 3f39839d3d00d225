// Package catalog is the durable multi-tenant policy store behind minupd's
// /policies API: named, monotonically versioned policies (a security
// lattice plus a classification-constraint set), compiled once per version
// into the existing constraint.Compiled snapshot and served from a
// memoized solve cache.
//
// The catalog is built as three layers:
//
//   - Storage (store.go). Each shard persists through the Store interface —
//     append a mutation record, load snapshot+replay, compact, close. The
//     durable implementation (walStore) is the existing WAL+snapshot
//     machinery: every mutation is written to an append-only log
//     (internal/wal: length+CRC32 frames, fsync policy knob) *before* it is
//     applied in memory, and the log is periodically compacted into an
//     atomically replaced snapshot file. Reopening yields exactly the state
//     of the mutations that reached the disk; a torn final frame is
//     truncated, losing at most the one interrupted mutation, and sequence
//     numbers make replay immune to the crash window between "snapshot
//     written" and "log reset". MemStore is the in-memory implementation
//     behind memory-only catalogs and tests.
//
//   - Sharding (this file). Policies are partitioned across N shards by an
//     FNV-1a hash of the policy name. Each shard owns its own Store (its
//     own WAL file, snapshot, and compaction counter) and its own RWMutex,
//     so mutations on unrelated policies never contend; a cache-hit read
//     takes only a read lock, and no compile or solve ever holds the lock.
//     Recovery runs concurrently, one goroutine per shard. The shard count
//     is pinned by a meta file in the data directory — membership depends
//     on N, so an existing directory's count always wins over the Options
//     value.
//
//   - Mutation pipeline (pipeline.go). Ingest is decoupled from
//     compile/solve: a mutation returns once its WAL append is durable and
//     the new version is swapped in, and queues the policy's name on its
//     shard. The queue holds each name at most once; the shard's worker
//     drains it, solving the name's current version cold. MutateOptions.Wait
//     runs that same refresh inline instead, and Flush drains the queues
//     for deterministic tests and shutdown.
//
// Each policy version is an immutable value, and a mutation — live,
// replicated or replayed — stages the next one and commits it (stage,
// commit). Every cold solve, whether a read's, the refresh worker's or a
// waited mutation's, goes through fill, once per version. Serving an
// unchanged policy performs zero compiles and zero solves
// ("catalog.cache_hits"), and a caller that encodes the answer does so once
// per version (SolveResult.EncodeOnce). Optimistic concurrency (If-Match
// versions) keeps its linear history per name because each name lives on
// exactly one shard and every mutation holds that shard's write lock.
package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minup/internal/baseline"
	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/fault"
	"minup/internal/lattice"
	"minup/internal/obs"
	"minup/internal/wal"
)

// Typed errors. Match with errors.Is; the HTTP layer maps them to 404, 409,
// 412, and 503.
var (
	// ErrNotFound reports a name with no policy behind it.
	ErrNotFound = errors.New("catalog: policy not found")
	// ErrExists reports a create-only Put (If-None-Match: *) against an
	// existing policy.
	ErrExists = errors.New("catalog: policy already exists")
	// ErrVersionMismatch reports a failed optimistic-concurrency
	// precondition: the caller's expected version is not the current one.
	ErrVersionMismatch = errors.New("catalog: version precondition failed")
	// ErrStorage marks a WAL write failure: the mutation was valid but
	// could not be made durable, and was therefore not applied. The HTTP
	// layer maps it to 500 instead of the 4xx a validation failure gets.
	ErrStorage = errors.New("catalog: storage failure")
	// ErrSnapshotCorrupt reports that a shard's snapshot file could not be
	// decoded or applied during Open — bit rot, truncation, or manual
	// editing. Counted under "catalog.snapshot_corrupt". Recovery refuses
	// to guess: the operator decides whether to restore or delete the file.
	ErrSnapshotCorrupt = errors.New("catalog: snapshot corrupt")
	// ErrClosed reports a mutation against a closed catalog.
	ErrClosed = errors.New("catalog: closed")
)

// Unconditional is the ifVersion value for mutations without an
// optimistic-concurrency precondition.
const Unconditional int64 = -1

// MustNotExist is the ifVersion value for create-only Puts.
const MustNotExist int64 = 0

// Options configures a catalog.
type Options struct {
	// Dir is the data directory for the per-shard WAL and snapshot files.
	// Empty means memory-only: no durability, everything else identical.
	Dir string
	// Sync is the WAL fsync policy (wal.SyncAlways by default).
	Sync wal.SyncPolicy
	// Metrics, when non-nil, receives the catalog.* and wal.* series.
	Metrics *obs.Registry
	// Flight, when non-nil, receives one FlightRecord per refresh-pipeline
	// job (outcome, duration, policy identity), so stalled or crashing
	// refreshes are visible in /debug/requests next to the HTTP traffic
	// that caused them.
	Flight *obs.FlightRecorder
	// Fault, when non-nil, arms the "catalog.compile", "wal.append", and
	// "wal.fsync" fault points for chaos testing.
	Fault *fault.Injector
	// SnapshotEvery compacts a shard's WAL into its snapshot after this
	// many records on that shard (0 uses the default of 256; negative
	// disables compaction).
	SnapshotEvery int
	// Shards is the number of independent shards policies are hashed
	// across (0 or negative uses GOMAXPROCS). For a durable catalog the
	// value is only honored when the data directory is new: an existing
	// directory's meta file pins the count it was created with, because
	// shard membership depends on it.
	Shards int
	// OpenStore, when non-nil, supplies shard i's Store instead of the
	// default (a walStore under Dir, or a fresh MemStore when Dir is
	// empty). Tests use it to inject per-shard faults or to hand a
	// reopened catalog the MemStores of a "crashed" one.
	OpenStore func(shard int) (Store, error)
	// OnRecord, when non-nil, is called once per record durably appended to
	// a shard's store — live mutations and replicated applies alike, but
	// not recovery replay — under that shard's write lock, in sequence
	// order. The cluster replication layer hangs its per-shard frame ring
	// off this hook; it must be fast and must not call back into the
	// catalog. The payload is the exact bytes written to the store and must
	// not be mutated.
	OnRecord func(RecordEvent)
}

// RecordEvent describes one durably appended store record for OnRecord.
type RecordEvent struct {
	Shard   int
	Seq     uint64
	Payload []byte
}

const defaultSnapshotEvery = 256

// metaFile pins directory-level invariants, today just the shard count.
type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// RecoveryInfo reports what Open reconstructed from the data directory.
type RecoveryInfo struct {
	// SnapshotPolicies is the number of policies loaded from shard
	// snapshots; WALRecords the number of live WAL records replayed on
	// top, summed across shards.
	SnapshotPolicies, WALRecords int
	// TornTail reports that at least one shard's WAL ended in a torn frame
	// that was cut.
	TornTail bool
	// Shards is the shard count the catalog opened with.
	Shards int
	// Duration is the wall time of the whole (concurrent) recovery.
	Duration time.Duration
}

// policy is one version of a named policy, an immutable value: its name,
// shard, version, texts and set are fixed when stage builds it, and a
// mutation builds the next version instead of editing this one, so a
// version's identity is its pointer. Only compiled and memo change, each
// filled at most once by the caller holding the version's turn and stored
// under the owning shard's write lock; reading them takes the read lock.
type policy struct {
	name        string
	shard       int
	version     uint64
	latticeText string
	consTexts   []string // the Put text followed by each appended batch; never appended to in place
	set         *constraint.Set
	// turn holds a token while one caller compiles or solves the version
	// (take, release).
	turn     chan struct{}
	compiled *constraint.Compiled
	memo     *memo
}

// memo is one version's memoized answer: the minimal solution and the
// stats of the solve that found it, installed once per version, plus the
// answer's encoded form, filled by the first EncodeOnce of a hit. The memo
// dies with its version, so its bytes can never describe another one —
// not even after delete + recreate, where versions restart at 1.
type memo struct {
	solved constraint.Assignment
	stats  core.Stats
	once   sync.Once
	body   []byte
}

// shard is one hash partition: its own policies, its own Store, its own
// lock, its own compaction counter.
type shard struct {
	id        int
	mu        sync.RWMutex
	store     Store
	pol       map[string]*policy
	seq       uint64 // last sequence number written to (or restored from) the store
	snapSeq   uint64 // sequence number the shard's snapshot covers
	sinceSnap int
	closed    bool

	// The refresh queue: names awaiting the shard worker, oldest first,
	// each at most once (queued marks membership). Guarded by mu; wake
	// (capacity 1) tells the worker there is work or the shard closed.
	queue  []string
	queued map[string]bool
	wake   chan struct{}

	// Recovery bookkeeping, written only during Open.
	snapPolicies, walRecords int
	tornTail                 bool
}

// Catalog is the policy store. Construct with Open; safe for concurrent
// use.
type Catalog struct {
	opt      Options
	shards   []*shard
	pending  pendingTracker
	workers  sync.WaitGroup
	closed   atomic.Bool
	policies atomic.Int64 // live policy count across shards
	recovery RecoveryInfo
}

// snapshotFile is the JSON shape of one shard's compacted snapshot (and,
// with LastSeq zeroed, of the catalog-wide Fingerprint).
type snapshotFile struct {
	LastSeq  uint64           `json:"last_seq"`
	Policies []snapshotPolicy `json:"policies"`
}

type snapshotPolicy struct {
	Name        string   `json:"name"`
	Version     uint64   `json:"version"`
	Lattice     string   `json:"lattice"`
	Constraints []string `json:"constraints"`
}

// shardFor routes a policy name to its shard: inline FNV-1a (no
// allocation, keeps the read path at its alloc budget).
func (c *Catalog) shardFor(name string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Open creates a catalog. With Options.Dir set it recovers the persisted
// state, all shards concurrently: each shard's snapshot (if any) is loaded,
// then every WAL record past the snapshot's sequence number is replayed,
// and a torn final frame is truncated. Reopening a directory therefore
// always yields exactly the state of the mutations that reached the disk.
func Open(opt Options) (*Catalog, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = defaultSnapshotEvery
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	if opt.Dir != "" {
		if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		n, err := loadOrInitMeta(opt.Dir, opt.Shards, opt.Sync == wal.SyncAlways)
		if err != nil {
			return nil, err
		}
		opt.Shards = n
	}
	c := &Catalog{opt: opt}
	if opt.Metrics != nil {
		c.pending.gauge = opt.Metrics.Gauge("catalog.refresh.pending")
	}
	c.recovery.Shards = opt.Shards
	for i := 0; i < opt.Shards; i++ {
		s := &shard{id: i, pol: make(map[string]*policy), queued: make(map[string]bool), wake: make(chan struct{}, 1)}
		var err error
		switch {
		case opt.OpenStore != nil:
			s.store, err = opt.OpenStore(i)
		case opt.Dir != "":
			s.store = openWALStore(opt.Dir, i, wal.Options{
				Sync:    opt.Sync,
				Metrics: opt.Metrics,
				Fault:   opt.Fault,
			})
		default:
			s.store = NewMemStore()
		}
		if err != nil {
			c.closeStores()
			return nil, fmt.Errorf("catalog: opening shard %d store: %w", i, err)
		}
		c.shards = append(c.shards, s)
	}

	// Recover every shard concurrently; the first failure aborts the open.
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			errs[i] = c.recoverShard(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.closeStores()
			return nil, err
		}
	}
	for _, s := range c.shards {
		c.recovery.SnapshotPolicies += s.snapPolicies
		c.recovery.WALRecords += s.walRecords
		c.recovery.TornTail = c.recovery.TornTail || s.tornTail
		c.policies.Add(int64(len(s.pol)))
		if opt.SnapshotEvery > 0 && s.sinceSnap >= opt.SnapshotEvery {
			if err := c.compactShard(s); err != nil {
				c.closeStores()
				return nil, err
			}
		}
	}
	c.recovery.Duration = time.Since(start)
	c.setGauges()

	// Start the refresh pipeline: one worker per shard, draining its queue.
	for _, s := range c.shards {
		c.workers.Add(1)
		go c.refreshWorker(s)
	}
	return c, nil
}

// loadOrInitMeta reads the data directory's meta file, creating it with
// shards when absent. An existing file wins: shard membership is a function
// of the count, so changing it on a populated directory would orphan
// policies.
func loadOrInitMeta(dir string, shards int, sync bool) (int, error) {
	path := filepath.Join(dir, "catalog.meta.json")
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		out, err := json.MarshalIndent(metaFile{Version: 1, Shards: shards}, "", "  ")
		if err != nil {
			return 0, fmt.Errorf("catalog: encoding meta: %w", err)
		}
		if err := wal.WriteAtomic(path, append(out, '\n'), sync); err != nil {
			return 0, fmt.Errorf("catalog: writing meta: %w", err)
		}
		return shards, nil
	case err != nil:
		return 0, fmt.Errorf("catalog: reading meta: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(data, &meta); err != nil {
		return 0, fmt.Errorf("catalog: decoding meta %s: %w", path, err)
	}
	if meta.Shards < 1 {
		return 0, fmt.Errorf("catalog: meta %s declares %d shards", path, meta.Shards)
	}
	return meta.Shards, nil
}

// recoverShard loads one shard's snapshot and replays its log. Snapshot
// decode/apply failures are surfaced as ErrSnapshotCorrupt — the snapshot
// is a file the catalog wrote itself, so any undecodable state means
// corruption, not version skew.
func (s *shard) loadSnapshot(data []byte) error {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%w: shard %d: decoding: %w", ErrSnapshotCorrupt, s.id, err)
	}
	for _, sp := range snap.Policies {
		if len(sp.Constraints) == 0 {
			return fmt.Errorf("%w: shard %d: policy %q has no constraint text", ErrSnapshotCorrupt, s.id, sp.Name)
		}
		// Stage the put and each appended batch in turn; only the last
		// version, numbered as the snapshot says, is swapped in.
		var p *policy
		for i, text := range sp.Constraints {
			rec := walRecord{Op: "append", Name: sp.Name, Constraints: text}
			if i == 0 {
				rec.Op, rec.Lattice = "put", sp.Lattice
			}
			var err error
			if p, err = s.stage(p, rec, nil); err != nil {
				return fmt.Errorf("%w: shard %d: policy %q: %w", ErrSnapshotCorrupt, s.id, sp.Name, err)
			}
		}
		p.version = sp.Version
		s.swap(sp.Name, p)
	}
	s.seq = snap.LastSeq
	s.snapSeq = snap.LastSeq
	s.snapPolicies = len(snap.Policies)
	return nil
}

func (c *Catalog) recoverShard(s *shard) error {
	ls, err := s.store.Load(
		func(data []byte) error {
			if err := s.loadSnapshot(data); err != nil {
				c.count("catalog.snapshot_corrupt")
				return err
			}
			return nil
		},
		s.replayRecord,
	)
	if err != nil {
		return err
	}
	s.tornTail = ls.TornTail
	s.sinceSnap = s.walRecords
	return nil
}

// replayRecord applies one log record during Open. Records at or below the
// snapshot's sequence number are the crash window between "snapshot
// written" and "WAL reset"; they are already reflected in the snapshot and
// are skipped.
func (s *shard) replayRecord(payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("catalog: decoding WAL record: %w", err)
	}
	if rec.Seq <= s.snapSeq {
		return nil
	}
	p, err := s.stage(s.pol[rec.Name], rec, nil)
	if err != nil {
		return fmt.Errorf("catalog: WAL record seq %d (%s %q): %w", rec.Seq, rec.Op, rec.Name, err)
	}
	s.swap(rec.Name, p)
	s.seq = rec.Seq
	s.walRecords++
	return nil
}

// RecoveryInfo reports what Open reconstructed. Zero counts for memory-only
// catalogs.
func (c *Catalog) RecoveryInfo() RecoveryInfo { return c.recovery }

// closeStores closes every shard store that Open managed to create; used on
// the Open failure paths.
func (c *Catalog) closeStores() {
	for _, s := range c.shards {
		if s.store != nil {
			s.store.Close()
		}
	}
}

// Close drains the refresh pipeline and releases every shard's store.
// Idempotent and safe to race with mutations: the first call wins, later
// calls (and mutations that lose the race) observe ErrClosed. Durable state
// needs no flushing — every mutation is WAL-first — so drain only has to
// let the queued cache refreshes finish.
func (c *Catalog) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Close every shard first: a mutation that loses the race sees closed
	// under the shard lock, returns ErrClosed and queues nothing. Each
	// worker then drains the names already queued and exits.
	for _, s := range c.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.signal()
	}
	c.workers.Wait()
	var first error
	for _, s := range c.shards {
		s.mu.Lock()
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
		s.mu.Unlock()
	}
	return first
}

// ---------------------------------------------------------------------------
// Versions: every mutation — live, replicated or replayed — is a walRecord,
// and stage builds the version it makes. Live and replicated mutations then
// commit it; recovery, whose records are already in the store, only swaps.

func validName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("catalog: policy name must be 1..128 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("catalog: policy name %q may only contain [A-Za-z0-9._-]", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("catalog: policy name %q is reserved", name)
	}
	return nil
}

// parsePut checks a put's policy name and parses its two texts.
func parsePut(name, latticeText, constraintsText string) (*constraint.Set, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	set, err := constraint.ParsePolicy(latticeText, constraintsText)
	if err != nil {
		return nil, fmt.Errorf("catalog: policy %q %w", name, err)
	}
	return set, nil
}

// stage builds the version that rec makes of cur, the version now under
// rec.Name (nil when there is none), numbered after cur. A put parses its
// texts, unless set holds them already parsed (a live Put parses before it
// takes the lock); an append parses its batch into a clone of cur's set; a
// delete checks that cur exists and yields nil. Nothing is published.
func (s *shard) stage(cur *policy, rec walRecord, set *constraint.Set) (*policy, error) {
	var latticeText string
	var texts []string
	switch rec.Op {
	case "put":
		if set == nil {
			var err error
			if set, err = parsePut(rec.Name, rec.Lattice, rec.Constraints); err != nil {
				return nil, err
			}
		}
		latticeText, texts = rec.Lattice, []string{rec.Constraints}
	case "append":
		if cur == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, rec.Name)
		}
		set = cur.set.Clone()
		if err := set.ParseString(rec.Constraints); err != nil {
			return nil, fmt.Errorf("catalog: policy %q append: %w", rec.Name, err)
		}
		n := len(cur.consTexts)
		latticeText, texts = cur.latticeText, append(cur.consTexts[:n:n], rec.Constraints)
	case "delete":
		if cur == nil {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, rec.Name)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("catalog: unknown op %q", rec.Op)
	}
	version := uint64(1)
	if cur != nil {
		version = cur.version + 1
	}
	return &policy{
		name:        rec.Name,
		shard:       s.id,
		version:     version,
		latticeText: latticeText,
		consTexts:   texts,
		set:         set,
		turn:        make(chan struct{}, 1),
	}, nil
}

// checkLive refuses a staged set that a live mutation may not commit: one
// that declares, from attribute from on, a name the policy text form cannot
// carry (constraint.TextName), or one that is unsolvable (§6). Replay,
// replicated applies and snapshot loads skip it: their records passed it
// on the node that logged them, or were logged before names were checked.
func checkLive(rec walRecord, set *constraint.Set, from int) error {
	for a := from; a < set.NumAttrs(); a++ {
		if name := set.AttrName(constraint.Attr(a)); !constraint.TextName(name) {
			return fmt.Errorf("catalog: policy %q %s declares attribute %q, which policy text cannot carry", rec.Name, rec.Op, name)
		}
	}
	if err := core.CheckSolvable(set); err != nil {
		return fmt.Errorf("catalog: policy %q %s is unsolvable: %w", rec.Name, rec.Op, err)
	}
	return nil
}

// swap makes p the version under name, or removes name when p is nil, and
// returns how the shard's policy count changed. Caller holds s's write
// lock, or owns s outright (recovery).
func (s *shard) swap(name string, p *policy) int64 {
	n := len(s.pol)
	if p == nil {
		delete(s.pol, name)
	} else {
		s.pol[name] = p
	}
	return int64(len(s.pol) - n)
}

// commit makes p, the version rec staged (nil for a delete), durable and
// current, in write-ahead order: it appends payload, rec's bytes at the
// shard's next sequence number rec.Seq, to the store, advances seq and
// sinceSnap and calls OnRecord, swaps p in, updates the policy count and
// gauges, and compacts if due. A failed append changes nothing, so memory
// never runs ahead of the store. Caller holds s's write lock.
func (c *Catalog) commit(s *shard, rec walRecord, payload []byte, p *policy) error {
	if err := s.store.Append(payload); err != nil {
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	s.seq = rec.Seq
	s.sinceSnap++
	if c.opt.OnRecord != nil {
		c.opt.OnRecord(RecordEvent{Shard: s.id, Seq: rec.Seq, Payload: payload})
	}
	if d := s.swap(rec.Name, p); d != 0 {
		c.policies.Add(d)
		c.shardGauge(s)
	}
	c.maybeCompact(s)
	return nil
}

// maybeCompact snapshots and resets the shard's log when it has grown past
// the compaction threshold. Compaction failures are counted but do not fail
// the mutation that triggered them — the log alone is still a complete,
// durable history, and the shard's next mutation retries.
func (c *Catalog) maybeCompact(s *shard) {
	if c.opt.SnapshotEvery <= 0 || s.sinceSnap < c.opt.SnapshotEvery {
		return
	}
	if err := c.compactShard(s); err != nil {
		c.count("catalog.compaction_errors")
	}
}

// compactShard writes the shard's full state to its snapshot (atomically)
// and then resets its log. The snapshot records the sequence number it
// covers, so a crash between the two steps merely replays records the
// snapshot already contains — replay skips them by sequence number.
func (c *Catalog) compactShard(s *shard) error {
	data, err := encodeSnapshot(s.seq, s.snapshotPolicies(make([]snapshotPolicy, 0, len(s.pol))))
	if err != nil {
		return err
	}
	if err := s.store.Compact(data); err != nil {
		return err
	}
	s.snapSeq = s.seq
	s.sinceSnap = 0
	c.count("catalog.snapshots")
	return nil
}

// snapshotPolicies appends the snapshot shape of each of s's versions to
// pols. Caller holds at least s's read lock. The shapes share the
// versions' text lists, which nothing modifies, so they may be marshaled
// after the lock is released.
func (s *shard) snapshotPolicies(pols []snapshotPolicy) []snapshotPolicy {
	for _, p := range s.pol {
		pols = append(pols, snapshotPolicy{Name: p.name, Version: p.version, Lattice: p.latticeText, Constraints: p.consTexts})
	}
	return pols
}

// encodeSnapshot serializes policies deterministically: sorted by name,
// stable JSON field order, trailing newline.
func encodeSnapshot(lastSeq uint64, pols []snapshotPolicy) ([]byte, error) {
	sort.Slice(pols, func(i, j int) bool { return pols[i].Name < pols[j].Name })
	snap := snapshotFile{LastSeq: lastSeq, Policies: pols}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("catalog: encoding snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// Fingerprint returns a deterministic serialization of the full catalog
// state (names, versions, lattice and constraint text, sorted across all
// shards). Two catalogs with equal fingerprints hold byte-identical policy
// state — the equality the crash-recovery chaos tests assert. Sequence
// numbers and the shard count are deliberately excluded: they describe the
// history's framing and its partitioning, not the state, so fingerprints
// compare across different shard counts.
func (c *Catalog) Fingerprint() []byte {
	pols := make([]snapshotPolicy, 0, c.policies.Load())
	for _, s := range c.shards {
		s.mu.RLock()
		pols = s.snapshotPolicies(pols)
		s.mu.RUnlock()
	}
	data, err := encodeSnapshot(0, pols)
	if err != nil {
		panic(err) // marshal of plain strings cannot fail
	}
	return data
}

// ---------------------------------------------------------------------------
// Metrics helpers.

func (c *Catalog) count(name string) {
	if c.opt.Metrics != nil {
		c.opt.Metrics.Counter(name).Inc()
	}
}

// setGauges refreshes the catalog-wide and per-shard policy gauges. The
// per-shard reads are racy snapshots (no shard lock), which is fine for a
// gauge.
func (c *Catalog) setGauges() {
	if c.opt.Metrics == nil {
		return
	}
	c.opt.Metrics.Gauge("catalog.policies").Set(c.policies.Load())
	for _, s := range c.shards {
		c.opt.Metrics.Gauge(fmt.Sprintf("catalog.shard.%d.policies", s.id)).Set(int64(len(s.pol)))
	}
}

// shardGauge updates one shard's policy gauge; called under the shard lock.
func (c *Catalog) shardGauge(s *shard) {
	if c.opt.Metrics != nil {
		c.opt.Metrics.Gauge("catalog.policies").Set(c.policies.Load())
		c.opt.Metrics.Gauge(fmt.Sprintf("catalog.shard.%d.policies", s.id)).Set(int64(len(s.pol)))
	}
}

// ---------------------------------------------------------------------------
// Public query API. (Mutations live in pipeline.go.)

// PolicyInfo is the externally visible description of one policy version.
type PolicyInfo struct {
	Name        string `json:"name"`
	Version     uint64 `json:"version"`
	Attrs       int    `json:"attrs"`
	Constraints int    `json:"constraints"`
	UpperBounds int    `json:"upper_bounds"`
	// Shard is the hash partition the policy lives on; Compiled and Solved
	// report the state of the version's memoized artifacts (false right
	// after an async mutation, true once the refresh pipeline — or a read
	// — has warmed them).
	Shard    int  `json:"shard"`
	Compiled bool `json:"compiled"`
	Solved   bool `json:"solved"`
	// Lattice and ConstraintText are the policy's source texts; the
	// constraint text is the Put batch followed by every appended batch.
	// Only Get fills them: List, solve results and mutation results are
	// sized to the answer, not to the policy.
	Lattice        string `json:"lattice,omitempty"`
	ConstraintText string `json:"constraints_text,omitempty"`
}

// info describes p without its source texts, which only Get adds: joining
// them costs an allocation per batch, which a memo hit or a mutation ack
// must not pay.
func (p *policy) info() PolicyInfo {
	return PolicyInfo{
		Name:        p.name,
		Version:     p.version,
		Attrs:       p.set.NumAttrs(),
		Constraints: len(p.set.Constraints()),
		UpperBounds: len(p.set.UpperBounds()),
		Shard:       p.shard,
		Compiled:    p.compiled != nil,
		Solved:      p.memo != nil,
	}
}

// checkVersion enforces the optimistic-concurrency precondition against p,
// the version now under name (nil when there is none). ifVersion:
// Unconditional (-1) accepts any state; MustNotExist (0) requires absence;
// a positive value requires the policy to exist at exactly that version.
func checkVersion(p *policy, name string, ifVersion int64, mustExist bool) error {
	switch {
	case ifVersion == Unconditional:
		if p == nil && mustExist {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
	case ifVersion == MustNotExist:
		if p != nil {
			return fmt.Errorf("%w: %q is at version %d", ErrExists, name, p.version)
		}
	default:
		if p == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if p.version != uint64(ifVersion) {
			return fmt.Errorf("%w: %q is at version %d, precondition %d",
				ErrVersionMismatch, name, p.version, ifVersion)
		}
	}
	return nil
}

// Get returns the policy's current description, or ErrNotFound.
func (c *Catalog) Get(name string) (PolicyInfo, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.pol[name]
	if p == nil {
		return PolicyInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	info := p.info()
	info.Lattice = p.latticeText
	info.ConstraintText = strings.Join(p.consTexts, "\n")
	return info, nil
}

// List returns every policy's description (without the source texts),
// sorted by name across all shards.
func (c *Catalog) List() []PolicyInfo {
	out := make([]PolicyInfo, 0, c.policies.Load())
	for _, s := range c.shards {
		s.mu.RLock()
		for _, p := range s.pol {
			out = append(out, p.info())
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of policies across all shards.
func (c *Catalog) Len() int { return int(c.policies.Load()) }

// SolveResult is the answer of Catalog.Serve and Solve.
type SolveResult struct {
	// Info describes the served version, without its source texts.
	Info PolicyInfo
	// Assignment maps attribute names to formatted level names. Solve
	// fills it; Serve leaves it nil, and Pairs lists the same pairs
	// without building it.
	Assignment map[string]string
	// Stats are the operation counts of the solve that produced the
	// memoized answer (a cache hit returns the original solve's stats).
	Stats core.Stats
	// CacheHit reports that the answer came from the memoized cache: zero
	// compiles and zero solves were performed by this call.
	CacheHit bool
	// Baseline reports a cold version answered with the Qian least
	// fixpoint (SolveOptions.Baseline): it satisfies every constraint but
	// may over-classify, and it was not memoized. UpgradedAttrs counts its
	// attributes classified above lattice bottom.
	Baseline      bool
	UpgradedAttrs int

	// set and levels are the served version's constraint set and the
	// answer's level per attribute; memo is the version's memo on a hit,
	// nil otherwise.
	set    *constraint.Set
	levels constraint.Assignment
	memo   *memo
}

// Pairs returns the answer's attribute names and formatted levels without
// building the Assignment map. It sorts the names when called.
func (r SolveResult) Pairs() Pairs {
	set := r.set
	order := set.Attrs()
	slices.SortFunc(order, func(a, b constraint.Attr) int {
		return strings.Compare(set.AttrName(a), set.AttrName(b))
	})
	return Pairs{set: set, levels: r.levels, order: order}
}

// Pairs lists an answer's attribute names and formatted levels in name
// order, the order encoding/json writes a map's keys in.
type Pairs struct {
	set    *constraint.Set
	levels constraint.Assignment
	order  []constraint.Attr
}

// Len returns the number of attributes.
func (p Pairs) Len() int { return len(p.order) }

// At returns the name and formatted level of the i-th attribute in name
// order.
func (p Pairs) At(i int) (name, level string) {
	a := p.order[i]
	return p.set.AttrName(a), p.set.Lattice().FormatLevel(p.levels[a])
}

// EncodeOnce returns the encoded form of this answer, as enc produces it.
// On a cache hit enc runs at most once per version, outside every catalog
// lock, and every later hit of that version returns the same stored bytes,
// which callers must not modify; the bytes are dropped with the version.
// On any other result — a cold solve, a baseline — EncodeOnce returns
// enc(). The catalog never encodes on its own, so a caller that never asks
// pays nothing. enc must depend only on the answer, never on the request.
func (r SolveResult) EncodeOnce(enc func() []byte) []byte {
	m := r.memo
	if m == nil {
		return enc()
	}
	m.once.Do(func() { m.body = enc() })
	if m.body == nil {
		// The first enc panicked inside the Once, which then counts as
		// done: encode per call rather than serve nothing.
		return enc()
	}
	return m.body
}

// SolveOptions tunes how Serve answers a cold version; a warm one is the
// memoized answer whatever they say.
type SolveOptions struct {
	// Events, when non-nil, logs the cold solve's event stream.
	Events *obs.EventLog
	// Baseline answers a cold version with the verified Qian least
	// fixpoint (§4 of the paper) instead of running Algorithm 3.1, and
	// memoizes nothing.
	Baseline bool
}

// Solve returns the minimal classification for the policy's current
// version: Serve with no options and the answer's Assignment map filled.
func (c *Catalog) Solve(ctx context.Context, name string) (SolveResult, error) {
	res, err := c.Serve(ctx, name, SolveOptions{})
	if err == nil {
		res.Assignment = formatAssignment(res.set, res.set.Lattice(), res.levels)
	}
	return res, err
}

// Serve returns the classification for the policy's current version,
// without the Assignment map: Pairs lists it. Warm policies are
// served from the memoized cache ("catalog.cache_hits"): under the shard's
// read lock a hit only copies the version's pointers, with no compile, no
// solve and no formatting. A cold version — the refresh pipeline hasn't
// caught up, or its refresh failed — is answered with the baseline when
// opt asks for it, and is otherwise solved by fill outside the shard lock
// ("catalog.cache_misses", "solve.cold") and memoized. The answer is that
// of the version the call looked up, even when a mutation replaces it
// meanwhile.
func (c *Catalog) Serve(ctx context.Context, name string, opt SolveOptions) (SolveResult, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	p := s.pol[name]
	if p != nil && p.memo != nil {
		res := hitResult(p)
		s.mu.RUnlock()
		c.count("catalog.cache_hits")
		return res, nil
	}
	if p != nil && opt.Baseline {
		info := p.info()
		s.mu.RUnlock()
		return baselineResult(ctx, info, p.set)
	}
	s.mu.RUnlock()
	if p == nil {
		return SolveResult{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	solved, err := c.fill(ctx, s, p, opt.Events, true)
	if err != nil {
		return SolveResult{}, err
	}
	s.mu.RLock()
	res := hitResult(p)
	s.mu.RUnlock()
	if !solved {
		// Another caller solved the version while this one waited.
		c.count("catalog.cache_hits")
		return res, nil
	}
	res.CacheHit, res.memo = false, nil
	return res, nil
}

// fill is the one cold-solve body: reads, the refresh worker and waited
// mutations all call it. It compiles p, reusing a snapshot Compiled built,
// and solves it with core.SolveContext outside the shard lock, then stores
// the snapshot and the answer on p under the write lock; it reports whether
// this call ran the solve. Callers take p's turn, each waiting only while
// its ctx is live, so a version is compiled once and solved into one
// answer: a caller whose turn comes after another stored the answer solves
// nothing. read selects a read's counters (a cache miss, then
// "solve.cold") over a refresh's ("catalog.refresh.solves").
func (c *Catalog) fill(ctx context.Context, s *shard, p *policy, events *obs.EventLog, read bool) (solved bool, err error) {
	if err := p.take(ctx); err != nil {
		return false, err
	}
	defer p.release()
	s.mu.RLock()
	warm := p.memo != nil
	s.mu.RUnlock()
	if warm {
		return false, nil
	}
	if read {
		c.count("catalog.cache_misses")
	}
	compiled, err := c.snapshot(s, p)
	if err != nil {
		return false, err
	}
	if read {
		c.count("solve.cold")
	}
	res, err := core.SolveContext(ctx, compiled, core.Options{
		Metrics: c.opt.Metrics,
		Fault:   c.opt.Fault,
		Events:  events,
	})
	if err != nil {
		return false, err
	}
	if !read {
		c.count("catalog.refresh.solves")
	}
	s.mu.Lock()
	p.memo = &memo{solved: res.Assignment, stats: res.Stats}
	s.mu.Unlock()
	return true, nil
}

// Compiled returns the description and compiled snapshot of the policy's
// current version, building the snapshot outside the shard lock if no read
// or refresh has yet. The memoized solution is left untouched.
func (c *Catalog) Compiled(name string) (PolicyInfo, *constraint.Compiled, error) {
	s := c.shardFor(name)
	s.mu.RLock()
	p := s.pol[name]
	s.mu.RUnlock()
	if p == nil {
		return PolicyInfo{}, nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	_ = p.take(context.Background()) // a context that never ends: take waits for the turn and cannot fail
	defer p.release()
	compiled, err := c.snapshot(s, p)
	if err != nil {
		return PolicyInfo{}, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return p.info(), compiled, nil
}

// take waits for p's turn to compile or solve it for as long as ctx is
// live; a caller that gives up gets the solver's cancellation error, so it
// is handled like a solve that ran out of budget.
func (p *policy) take(ctx context.Context) error {
	select {
	case p.turn <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
	}
}

// release ends the caller's turn.
func (p *policy) release() { <-p.turn }

// snapshot returns p's compiled snapshot, building it outside the shard
// lock ("catalog.compiles", fault point "catalog.compile") and storing it on
// p if no caller has yet. Caller holds p's turn.
func (c *Catalog) snapshot(s *shard, p *policy) (*constraint.Compiled, error) {
	s.mu.RLock()
	compiled := p.compiled
	s.mu.RUnlock()
	if compiled != nil {
		return compiled, nil
	}
	if err := c.opt.Fault.Hit("catalog.compile"); err != nil {
		return nil, fmt.Errorf("catalog: compiling %q: %w", p.name, err)
	}
	compiled = p.set.Snapshot()
	c.count("catalog.compiles")
	s.mu.Lock()
	p.compiled = compiled
	s.mu.Unlock()
	return compiled, nil
}

// baselineResult answers one version with the Qian least fixpoint. The
// assignment is checked against every constraint before it is served; a
// failed check is an internal error, never an answer.
func baselineResult(ctx context.Context, info PolicyInfo, set *constraint.Set) (SolveResult, error) {
	start := time.Now()
	m, err := baseline.Qian(ctx, set)
	if err != nil {
		return SolveResult{}, fmt.Errorf("catalog: baseline for %q: %w", info.Name, err)
	}
	if err := core.Verify(set, m); err != nil {
		return SolveResult{}, fmt.Errorf("%w: baseline for %q does not verify: %v", core.ErrInternal, info.Name, err)
	}
	return SolveResult{
		Info:          info,
		Stats:         core.Stats{Duration: time.Since(start)},
		Baseline:      true,
		UpgradedAttrs: baseline.CountUpgraded(set, m),
		set:           set,
		levels:        m,
	}, nil
}

// hitResult serves p's memoized answer; caller holds at least the shard's
// read lock.
func hitResult(p *policy) SolveResult {
	return SolveResult{
		Info:     p.info(),
		Stats:    p.memo.stats,
		CacheHit: true,
		set:      p.set,
		levels:   p.memo.solved,
		memo:     p.memo,
	}
}

// formatAssignment maps attribute names to formatted level names.
func formatAssignment(set *constraint.Set, lat lattice.Lattice, m constraint.Assignment) map[string]string {
	out := make(map[string]string, set.NumAttrs())
	for _, a := range set.Attrs() {
		out[set.AttrName(a)] = lat.FormatLevel(m[a])
	}
	return out
}
