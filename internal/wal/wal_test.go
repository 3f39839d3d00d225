package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"minup/internal/fault"
	"minup/internal/obs"
)

// openCollect opens the log collecting replayed records.
func openCollect(t *testing.T, path string, opt Options) (*Log, [][]byte, RecoveryStats) {
	t.Helper()
	var recs [][]byte
	l, rs, err := Open(path, opt, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, recs, rs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, rs := openCollect(t, path, Options{Sync: SyncNever})
	if len(recs) != 0 || rs.Records != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("one"), []byte(""), []byte("three-3"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, rs2 := openCollect(t, path, Options{Sync: SyncNever})
	defer l2.Close()
	if rs2.Records != len(want) || rs2.Truncated {
		t.Fatalf("recovery stats %+v, want %d records untruncated", rs2, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTornTailEveryPrefix is the crash-recovery property at the framing
// layer: for EVERY byte-length prefix of a valid log, recovery yields
// exactly the records whose frames fully fit in the prefix, and the file is
// truncated back to that record boundary.
func TestTornTailEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	var want [][]byte
	var bounds []int64 // end offset of each frame
	off := int64(0)
	for i := 0; i < 5; i++ {
		rec := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{'x'}, i*7)))
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
		off += headerSize + int64(len(rec))
		bounds = append(bounds, off)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, b := range bounds {
			if int64(cut) >= b {
				wantN++
			}
		}
		l2, got, rs := openCollect(t, p, Options{Sync: SyncNever})
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
		wantTrunc := wantN < len(bounds) && int64(cut) != boundsOrZero(bounds, wantN)
		if rs.Truncated != wantTrunc {
			t.Fatalf("cut %d: Truncated = %v, want %v (stats %+v)", cut, rs.Truncated, wantTrunc, rs)
		}
		if fi, _ := os.Stat(p); fi.Size() != boundsOrZero(bounds, wantN) {
			t.Fatalf("cut %d: file size %d after recovery, want %d", cut, fi.Size(), boundsOrZero(bounds, wantN))
		}
		l2.Close()
	}
}

func boundsOrZero(bounds []int64, n int) int64 {
	if n == 0 {
		return 0
	}
	return bounds[n-1]
}

func TestCorruptPayloadTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	l.Append([]byte("good-1"))
	l.Append([]byte("good-2"))
	l.Append([]byte("doomed"))
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // flip one payload byte of the last frame
	os.WriteFile(path, data, 0o644)

	l2, got, rs := openCollect(t, path, Options{Sync: SyncNever})
	defer l2.Close()
	if len(got) != 2 || !rs.Truncated {
		t.Fatalf("recovered %d records (stats %+v), want 2 with truncation", len(got), rs)
	}
	// The log must be appendable again after the cut.
	if err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestImplausibleLengthTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	l.Append([]byte("keep"))
	l.Close()
	data, _ := os.ReadFile(path)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecord+1)
	data = append(data, hdr[:]...)
	os.WriteFile(path, data, 0o644)
	l2, got, rs := openCollect(t, path, Options{Sync: SyncNever})
	defer l2.Close()
	if len(got) != 1 || !rs.Truncated {
		t.Fatalf("recovered %d records (stats %+v)", len(got), rs)
	}
}

func TestApplyErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	l.Append([]byte("rec"))
	l.Close()
	boom := errors.New("boom")
	_, _, err := Open(path, Options{Sync: SyncNever}, func([]byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Open with failing apply: err = %v, want wrapped boom", err)
	}
}

func TestResetEmptiesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncAlways})
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("file after Reset: %v, %v; want 0 bytes", fi, err)
	}
	l.Append([]byte("c"))
	l.Close()
	l2, got, _ := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != 1 || string(got[0]) != "c" {
		t.Fatalf("after reset replayed %q", got)
	}
}

func TestFaultPointsFire(t *testing.T) {
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "wal.append", Act: fault.Cancel, Nth: 2})
	path := filepath.Join(t.TempDir(), "wal.log")
	reg := obs.NewRegistry()
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever, Fault: inj, Metrics: reg})
	if err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	err := l.Append([]byte("canceled"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("2nd append err = %v, want injected", err)
	}
	l.Close()
	// The canceled record must not be on disk.
	l2, got, _ := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d records after injected cancel, want 1", len(got))
	}
	snap := reg.Snapshot()
	if snap.Counters["wal.records"] != 1 {
		t.Fatalf("wal.records = %d, want 1", snap.Counters["wal.records"])
	}
	if _, ok := snap.Histograms["wal.append.duration_us"]; !ok {
		t.Fatal("missing wal.append.duration_us histogram")
	}
}

func TestFsyncPanicLeavesRecordOnDisk(t *testing.T) {
	// A crash at the fsync point happens AFTER the frame was written: the
	// record is (likely) on disk and recovery replays it — the asymmetric
	// twin of the wal.append case, pinned here so the catalog chaos test's
	// shadow-model accounting rests on tested ground.
	inj := fault.New(1)
	inj.MustAdd(fault.Rule{Point: "wal.fsync", Act: fault.Panic, Nth: 2})
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncAlways, Fault: inj})
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			pe := &fault.PanicError{}
			if rec := recover(); !errors.As(toErr(rec), &pe) {
				t.Fatalf("recovered %v, want *fault.PanicError", rec)
			}
		}()
		l.Append([]byte("two"))
		t.Fatal("append did not panic")
	}()
	l.Close()
	l2, got, _ := openCollect(t, path, Options{})
	defer l2.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2 (frame written before fsync)", len(got))
	}
}

func toErr(rec any) error {
	if err, ok := rec.(error); ok {
		return err
	}
	return fmt.Errorf("%v", rec)
}

func TestWriteAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := WriteAtomic(path, []byte("v1"), true); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, []byte("v2-longer"), true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2-longer" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// No temp debris left behind.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

// TestAppendReusesFrameBuffer: once its frame buffer has grown, Append
// frames each record in it and allocates nothing.
func TestAppendReusesFrameBuffer(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "log"), Options{Sync: SyncNever}, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte(`{"seq":1}`), 100)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", n)
	}
}
