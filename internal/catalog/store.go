package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"minup/internal/wal"
)

// Store is the per-shard storage contract the catalog runs on: an opaque
// snapshot blob plus an ordered log of mutation records layered on top of
// it. The catalog owns all encoding (JSON records, deterministic snapshot
// bytes, sequence numbers); a Store only moves bytes.
//
// The contract, in the order the catalog exercises it:
//
//   - Load runs once, before any Append or Compact: it hands the caller the
//     most recent snapshot (if one exists) and then replays every log
//     record written after that snapshot, in append order. An error from
//     either callback aborts the load — a record the application cannot
//     absorb is corruption above the framing layer and must not be
//     silently dropped.
//   - Append durably adds one record to the log. When Append returns nil
//     the record will be seen by every future Load.
//   - Compact atomically replaces the snapshot with data and truncates the
//     log: afterwards Load yields exactly (data, no records). Readers must
//     never observe a half-written snapshot.
//   - Close releases the store's resources; only Load may revive it.
//
// walStore is the durable reference implementation (WAL + snapshot file);
// MemStore is the in-memory implementation for tests and memory-only
// catalogs. Implementations do not need to be safe for concurrent use: the
// owning shard serializes every call under its lock. Callers do not modify
// a slice after handing it to Append or Compact, so a Store may keep it
// without copying.
type Store interface {
	Load(snapshot func(data []byte) error, record func(rec []byte) error) (LoadStats, error)
	Append(rec []byte) error
	Compact(snapshot []byte) error
	Close() error
}

// LoadStats reports what Store.Load found.
type LoadStats struct {
	// HadSnapshot reports that a snapshot existed and was handed to the
	// snapshot callback; Records is the number of log records replayed.
	HadSnapshot bool
	Records     int
	// TornTail reports that the log ended in a torn frame that was cut.
	TornTail bool
}

// ---------------------------------------------------------------------------
// walStore: the durable WAL+snapshot implementation.

// walStore stores one shard's state as a snapshot file plus an append-only
// internal/wal log beside it. All durability machinery (CRC frames,
// torn-tail truncation, fsync policy, atomic snapshot replacement) lives in
// internal/wal; nothing above this type touches a file.
type walStore struct {
	walPath, snapPath string
	opt               wal.Options
	log               *wal.Log // nil until Load, and again after Close
}

// shardWALName / shardSnapName name shard i's files inside the data
// directory. The shard count itself is pinned by the directory's meta file,
// so these names are stable across restarts.
func shardWALName(i int) string  { return fmt.Sprintf("catalog-%d.wal", i) }
func shardSnapName(i int) string { return fmt.Sprintf("catalog-%d.snap", i) }

// openWALStore builds (but does not yet load) shard i's durable store under
// dir.
func openWALStore(dir string, i int, opt wal.Options) *walStore {
	return &walStore{
		walPath:  filepath.Join(dir, shardWALName(i)),
		snapPath: filepath.Join(dir, shardSnapName(i)),
		opt:      opt,
	}
}

func (w *walStore) Load(snapshot func([]byte) error, record func([]byte) error) (LoadStats, error) {
	var ls LoadStats
	data, err := os.ReadFile(w.snapPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return ls, fmt.Errorf("catalog: reading snapshot %s: %w", w.snapPath, err)
	default:
		ls.HadSnapshot = true
		if err := snapshot(data); err != nil {
			return ls, err
		}
	}
	log, rs, err := wal.Open(w.walPath, w.opt, record)
	if err != nil {
		return ls, err
	}
	w.log = log
	ls.Records = rs.Records
	ls.TornTail = rs.Truncated
	return ls, nil
}

func (w *walStore) Append(rec []byte) error {
	if w.log == nil {
		return fmt.Errorf("wal store %s: %w", w.walPath, wal.ErrClosed)
	}
	return w.log.Append(rec)
}

func (w *walStore) Compact(snapshot []byte) error {
	if w.log == nil {
		return fmt.Errorf("wal store %s: %w", w.walPath, wal.ErrClosed)
	}
	if err := wal.WriteAtomic(w.snapPath, snapshot, w.opt.Sync == wal.SyncAlways); err != nil {
		return fmt.Errorf("catalog: writing snapshot: %w", err)
	}
	return w.log.Reset()
}

func (w *walStore) Close() error {
	if w.log == nil {
		return nil
	}
	err := w.log.Close()
	w.log = nil
	return err
}

// ---------------------------------------------------------------------------
// MemStore: the in-memory implementation.

// MemStore is an in-memory Store: the exact snapshot+log contract of the
// durable walStore with no files behind it. It backs memory-only catalogs
// (every shard gets its own) and lets tests exercise recovery, compaction,
// and crash-window logic without a disk: a MemStore survives Close, so
// handing the same instance to a reopened catalog replays its retained
// snapshot and records just as a data directory would.
//
// Unlike walStore it is internally locked, because tests legitimately share
// one instance between a "crashed" catalog and its successor.
type MemStore struct {
	mu       sync.Mutex
	snapshot []byte
	records  [][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

func (m *MemStore) Load(snapshot func([]byte) error, record func([]byte) error) (LoadStats, error) {
	m.mu.Lock()
	snap := m.snapshot
	recs := append([][]byte(nil), m.records...)
	m.mu.Unlock()
	var ls LoadStats
	if snap != nil {
		ls.HadSnapshot = true
		if err := snapshot(snap); err != nil {
			return ls, err
		}
	}
	for _, rec := range recs {
		if err := record(rec); err != nil {
			return ls, fmt.Errorf("memstore: replaying record %d: %w", ls.Records, err)
		}
		ls.Records++
	}
	return ls, nil
}

func (m *MemStore) Append(rec []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records = append(m.records, rec)
	return nil
}

func (m *MemStore) Compact(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapshot = snapshot
	m.records = nil
	return nil
}

// Close is a no-op: the retained state stays readable so a later Load can
// simulate a restart.
func (m *MemStore) Close() error { return nil }

// Records returns the number of log records currently retained (post the
// last compaction), for tests.
func (m *MemStore) Records() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}
