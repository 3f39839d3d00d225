package catalog

import (
	"errors"
	"fmt"
)

// This file is the catalog's follower-apply surface: what the cluster
// replication layer (internal/cluster) needs to mirror a leader's per-shard
// WAL onto a replica. A follower applies each replicated record through the
// live mutation path's stage and commit — durable store append first, the
// new version swapped in second, refresh queued third — so two catalogs that
// applied the same record sequence hold byte-identical WALs and equal
// Fingerprints. Lagging or new followers skip the record stream entirely
// and install a whole-shard snapshot (InstallShardSnapshot), the same bytes
// compaction writes to catalog-<i>.snap.

// ErrOutOfOrder reports a replicated record whose sequence number is not
// exactly the shard's next: a gap means the follower missed frames and must
// snapshot-resync; a duplicate means the frame was already applied.
var ErrOutOfOrder = errors.New("catalog: record out of sequence")

// Shards returns the catalog's shard count (pinned by the data directory's
// meta file for durable catalogs). Replication streams are per shard, so
// leader and follower counts must match.
func (c *Catalog) Shards() int { return len(c.shards) }

// ShardOf returns the shard index policy name hashes to.
func (c *Catalog) ShardOf(name string) int { return c.shardFor(name).id }

// ShardSeq returns shard i's last durably logged (or applied) sequence
// number.
func (c *Catalog) ShardSeq(i int) uint64 {
	s := c.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// AppendShardSeqs appends every shard's last sequence number to dst, in
// shard order, so that a caller can keep the array it reads them into.
func (c *Catalog) AppendShardSeqs(dst []uint64) []uint64 {
	for i := range c.shards {
		dst = append(dst, c.ShardSeq(i))
	}
	return dst
}

// ApplyRecord applies one replicated WAL record payload to shard shardID,
// returning the shard's sequence number afterwards. The payload must be the
// leader's exact record bytes (seq and all); it is staged, committed with
// those bytes, and a put or append queues the policy for the shard's
// refresh worker — an async live mutation minus the precondition and
// checkLive checks the leader already enforced. A record that is not
// exactly the shard's next sequence number returns ErrOutOfOrder and
// changes nothing.
func (c *Catalog) ApplyRecord(shardID int, payload []byte) (uint64, error) {
	if shardID < 0 || shardID >= len(c.shards) {
		return 0, fmt.Errorf("catalog: apply: no shard %d", shardID)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return 0, fmt.Errorf("catalog: apply: decoding record: %w", err)
	}
	s := c.shards[shardID]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.seq, ErrClosed
	}
	if rec.Seq != s.seq+1 {
		return s.seq, fmt.Errorf("%w: shard %d at seq %d got record seq %d", ErrOutOfOrder, shardID, s.seq, rec.Seq)
	}
	p, err := s.stage(s.pol[rec.Name], rec, nil)
	if err != nil {
		return s.seq, fmt.Errorf("catalog: replicated %s: %w", rec.Op, err)
	}
	if err := c.commit(s, rec, payload, p); err != nil {
		return s.seq, err
	}
	if p != nil {
		c.enqueue(s, rec.Name)
	}
	c.count("catalog.replica.applied")
	return s.seq, nil
}

// ShardSnapshot serializes shard i's live state in the exact format of its
// compacted snapshot file (catalog-<i>.snap), plus the sequence number it
// covers — what a leader ships to a lagging or new follower.
func (c *Catalog) ShardSnapshot(i int) (data []byte, seq uint64, err error) {
	if i < 0 || i >= len(c.shards) {
		return nil, 0, fmt.Errorf("catalog: snapshot: no shard %d", i)
	}
	s := c.shards[i]
	s.mu.RLock()
	pols := s.snapshotPolicies(make([]snapshotPolicy, 0, len(s.pol)))
	seq = s.seq
	s.mu.RUnlock()
	return encodeSnapshot(seq, pols), seq, nil
}

// InstallShardSnapshot replaces shard i's entire state with a shipped
// snapshot: the data is fully decoded and validated first (a failure —
// ErrSnapshotCorrupt — leaves the shard untouched), then durably compacted
// into the shard's store and swapped into memory. Every installed policy is
// queued for a refresh so the replica's memoized solves re-warm.
func (c *Catalog) InstallShardSnapshot(i int, data []byte) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("catalog: install: no shard %d", i)
	}
	// Stage into a scratch shard: loadSnapshot validates and builds every
	// policy before the live shard is touched.
	tmp := &shard{id: i, pol: make(map[string]*policy)}
	if err := tmp.loadSnapshot(data); err != nil {
		c.count("catalog.snapshot_corrupt")
		return err
	}
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.store.Compact(data); err != nil {
		return fmt.Errorf("%w: %w", ErrStorage, err)
	}
	c.policies.Add(int64(len(tmp.pol) - len(s.pol)))
	s.pol = tmp.pol
	s.seq = tmp.seq
	s.snapSeq = tmp.snapSeq
	s.sinceSnap = 0
	for name := range s.pol {
		c.enqueue(s, name)
	}
	c.count("catalog.snapshot_installs")
	c.shardGauge(s)
	return nil
}
