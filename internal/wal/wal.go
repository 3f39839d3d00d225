// Package wal is a stdlib-only append-only write-ahead log for the policy
// catalog: every catalog mutation is framed, checksummed, and written (and,
// per the sync policy, fsynced) to a single log file *before* it is applied
// in memory, so a crash at any instant loses at most the tail mutation that
// had not finished reaching the disk.
//
// # Frame format
//
// Each record is one frame:
//
//	offset  size  field
//	0       4     payload length N, little-endian uint32
//	4       4     IEEE CRC32 of the payload, little-endian uint32
//	8       N     payload (opaque bytes; the catalog stores JSON)
//
// Frames are written with a single Write call, so an interrupted write can
// only produce a truncated tail — never a hole in the middle of the log.
//
// # Recovery
//
// Open scans the existing file frame by frame, handing every intact payload
// to the caller's apply function. The scan stops at the first bad frame — a
// header or payload cut short by a torn write, an implausible length, or a
// CRC mismatch — and truncates the file there, because (by the single-write
// invariant above) everything past the first bad frame is the debris of one
// interrupted append, not valid data. Recovery is therefore exactly: the
// state produced by applying every mutation that fully reached the disk, in
// order.
//
// # Fault points
//
// "wal.append" fires before a frame is written and "wal.fsync" before the
// file is synced; panic rules at either simulate a crash between the
// mutation's validation and its durability, the window the crash-recovery
// chaos tests exercise.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"minup/internal/fault"
	"minup/internal/obs"
)

const (
	headerSize = 8
	// MaxRecord bounds a single payload; a length field above it marks the
	// frame (and everything after it) as a torn tail. Generous compared to
	// any real policy mutation, tight compared to a corrupt length field.
	MaxRecord = 16 << 20
)

// ErrFrameCorrupt reports a frame whose header or payload failed
// validation while reading a frame stream (ReadFrame). It is distinct from
// a clean io.EOF, which marks the end of a well-formed stream.
var ErrFrameCorrupt = errors.New("wal: corrupt frame")

// EncodeFrame wraps payload in the WAL frame format (length + CRC32 header
// followed by the payload) and returns the framed bytes. The same encoding
// backs Log.Append and the cluster replication stream, so a frame produced
// here is byte-identical to one on disk.
func EncodeFrame(payload []byte) []byte { return appendFrame(nil, payload) }

// appendFrame appends payload's frame to dst, growing it at most once.
func appendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, headerSize+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// StartFrame empties buf and leaves room in it for a frame header: the
// caller appends the payload after the room and seals the frame with
// SealFrame, so a payload written in place needs no copy. A sealed frame
// goes out in a single Write call, preserving the torn-tail invariant
// when the writer is a file or socket.
func StartFrame(buf []byte) []byte { return append(buf[:0], make([]byte, headerSize)...) }

// SealFrame writes the header of frame, whose payload follows the room
// StartFrame left, and refuses a payload over MaxRecord.
func SealFrame(frame []byte) error {
	payload := frame[headerSize:]
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: frame of %d bytes exceeds MaxRecord", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// ReadFrame reads one frame from r and returns its payload, read into
// buf's array when it has room (buf may be nil), so a caller that keeps
// the result's array reads a stream of frames in one buffer. A clean end
// of stream returns io.EOF; a frame cut mid-header or mid-payload returns
// io.ErrUnexpectedEOF; an implausible length or CRC mismatch returns
// ErrFrameCorrupt. The reader should be buffered (bufio) for frame streams;
// ReadFrame issues exactly the reads it needs and never over-reads.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := slices.Grow(buf[:0], headerSize)[:headerSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecord {
		return nil, fmt.Errorf("%w: implausible length %d", ErrFrameCorrupt, n)
	}
	payload := hdr[:0]
	if int(n) > cap(payload) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return payload, nil
}

// SyncPolicy says when the log fsyncs.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append: a returned Append survives an
	// immediate power cut. The default, and the policy the crash-recovery
	// guarantees are stated for.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves durability to the OS page cache: appends survive a
	// process crash but not necessarily a machine crash. For tests and
	// throwaway instances.
	SyncNever
)

// Options tunes a Log. The zero value is ready to use (SyncAlways, no
// metrics, no faults).
type Options struct {
	Sync SyncPolicy
	// Metrics, when non-nil, records wal.append.duration_us,
	// wal.fsync.duration_us, and wal.recovery.duration_us histograms plus
	// the wal.records / wal.recovered_records / wal.torn_tails counters.
	Metrics *obs.Registry
	// Fault, when non-nil, arms the "wal.append" and "wal.fsync" fault
	// points for chaos testing. Nil is the production value.
	Fault *fault.Injector
}

// RecoveryStats reports what Open found in an existing log file.
type RecoveryStats struct {
	// Records is the number of intact frames replayed.
	Records int
	// Bytes is the valid prefix length the log was (re)opened at.
	Bytes int64
	// Truncated reports that a torn tail was found and cut off.
	Truncated bool
	// DroppedBytes is the length of the torn tail that was discarded.
	DroppedBytes int64
	// Duration is the wall time of the scan.
	Duration time.Duration
}

// Log is an append-only frame log. It is single-writer and not safe for
// concurrent use on its own; the catalog serializes every access under its
// mutex, which is the intended usage.
type Log struct {
	f    *os.File
	path string
	opt  Options
	size int64 // current valid end offset
	// frame is the buffer Append frames each record in, kept across
	// appends up to maxKeptFrame bytes.
	frame []byte
}

// maxKeptFrame bounds the frame buffer a Log keeps between appends, so one
// outsized record does not stay allocated for the life of the log.
const maxKeptFrame = 1 << 20

// Open opens (creating if absent) the log at path, replays every intact
// record through apply in write order, truncates any torn tail, and leaves
// the log positioned for appending. A non-nil error from apply aborts the
// open: an intact frame whose payload the application cannot absorb is
// corruption above the framing layer, not a torn tail, and must not be
// silently dropped.
func Open(path string, opt Options, apply func(rec []byte) error) (*Log, RecoveryStats, error) {
	start := time.Now()
	var rs RecoveryStats
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rs, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, rs, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, rs, err
	}
	valid := int64(0)
	for {
		rest := data[valid:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < headerSize {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecord || int64(headerSize)+int64(n) > int64(len(rest)) {
			break // implausible length or torn payload
		}
		payload := rest[headerSize : headerSize+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt frame
		}
		if err := apply(payload); err != nil {
			f.Close()
			return nil, rs, fmt.Errorf("wal: replaying record %d: %w", rs.Records, err)
		}
		rs.Records++
		valid += headerSize + int64(n)
	}
	if valid < fi.Size() {
		rs.Truncated = true
		rs.DroppedBytes = fi.Size() - valid
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, rs, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, rs, err
	}
	rs.Bytes = valid
	rs.Duration = time.Since(start)
	if m := opt.Metrics; m != nil {
		m.Histogram("wal.recovery.duration_us", obs.DurationBucketsUS).
			Observe(uint64(rs.Duration.Microseconds()))
		m.Counter("wal.recovered_records").Add(uint64(rs.Records))
		if rs.Truncated {
			m.Counter("wal.torn_tails").Inc()
		}
	}
	return &Log{f: f, path: path, opt: opt, size: valid}, rs, nil
}

// Append frames rec, writes it, and fsyncs per the sync policy. When Append
// returns nil the record will be replayed by every future Open (under
// SyncAlways, even across a power cut). On a write error the log truncates
// itself back to the last good frame so the in-process view stays
// consistent with the file.
func (l *Log) Append(rec []byte) error {
	if l.f == nil {
		return ErrClosed
	}
	if len(rec) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(rec))
	}
	if err := l.opt.Fault.Hit("wal.append"); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	start := time.Now()
	buf := appendFrame(l.frame[:0], rec)
	if cap(buf) <= maxKeptFrame {
		l.frame = buf
	}
	if _, err := l.f.Write(buf); err != nil {
		// Best effort: cut back to the last known-good frame so a partial
		// write does not poison later appends.
		l.f.Truncate(l.size)
		l.f.Seek(l.size, io.SeekStart)
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(buf))
	if m := l.opt.Metrics; m != nil {
		m.Counter("wal.records").Inc()
		m.Histogram("wal.append.duration_us", obs.DurationBucketsUS).
			Observe(uint64(time.Since(start).Microseconds()))
	}
	if l.opt.Sync == SyncAlways {
		return l.Sync()
	}
	return nil
}

// Sync forces the log to stable storage (a no-op policy knob bypass for
// callers that batch under SyncNever and sync at their own barriers).
func (l *Log) Sync() error {
	if l.f == nil {
		return ErrClosed
	}
	if err := l.opt.Fault.Hit("wal.fsync"); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if m := l.opt.Metrics; m != nil {
		m.Histogram("wal.fsync.duration_us", obs.DurationBucketsUS).
			Observe(uint64(time.Since(start).Microseconds()))
	}
	return nil
}

// Reset empties the log. The caller must already have made the state the
// log described durable elsewhere (the catalog's snapshot file) — Reset is
// the second half of snapshot compaction.
func (l *Log) Reset() error {
	if l.f == nil {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.size = 0
	if l.opt.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the underlying file. Under SyncNever the appends
// since the last sync are still sitting in the kernel page cache, so Close
// fsyncs first — a clean shutdown must not lose the buffered tail (under
// SyncAlways every append already synced, and the extra fsync is skipped).
// Idempotent: the first call wins, later calls return nil; Append, Sync,
// and Reset on a closed log return ErrClosed.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	var syncErr error
	if l.opt.Sync == SyncNever {
		syncErr = f.Sync()
	}
	closeErr := f.Close()
	if syncErr != nil {
		return fmt.Errorf("wal: close: %w", syncErr)
	}
	return closeErr
}

// ErrClosed reports an operation against a closed log.
var ErrClosed = errors.New("wal: log is closed")

// WriteAtomic durably replaces path with data: write to a temp file in the
// same directory, fsync it (when sync is true), rename over the target, and
// best-effort fsync the directory so the rename itself survives a crash.
// Readers see either the old contents or the new, never a mix — the
// property snapshot compaction needs.
func WriteAtomic(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			cleanup()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}
