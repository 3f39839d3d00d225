package wal

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// readFile reads a file or fails the test.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	return data
}

// writeFrame writes payload's frame to w as a stream writer does: sealed
// in place after the room StartFrame leaves.
func writeFrame(t *testing.T, w io.Writer, payload []byte) {
	t.Helper()
	frame := append(StartFrame(nil), payload...)
	if err := SealFrame(frame); err != nil {
		t.Fatalf("SealFrame: %v", err)
	}
	if _, err := w.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestFrameStreamRoundTrip writes frames with StartFrame and SealFrame and
// reads them back with ReadFrame on a buffered reader, including an empty
// payload and a large one, into one reused buffer.
func TestFrameStreamRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("one"), []byte(""), bytes.Repeat([]byte{0xCD}, 9000), []byte("two")}
	var buf bytes.Buffer
	for _, p := range want {
		writeFrame(t, &buf, p)
	}
	br := bufio.NewReader(&buf)
	var kept []byte
	for i, p := range want {
		got, err := ReadFrame(br, kept)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %q want %q", i, got, p)
		}
		kept = got[:0]
	}
	if _, err := ReadFrame(br, kept); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
	if err := SealFrame(append(StartFrame(nil), make([]byte, MaxRecord+1)...)); err == nil {
		t.Fatal("SealFrame took a payload over MaxRecord")
	}
}

// TestFrameStreamMatchesLogBytes asserts the streamed encoding is
// byte-identical to what Log.Append writes — the property that lets the
// cluster ship a shard's WAL frames verbatim.
func TestFrameStreamMatchesLogBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	payloads := [][]byte{[]byte(`{"seq":1}`), []byte(`{"seq":2,"op":"x"}`)}
	var stream bytes.Buffer
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
		writeFrame(t, &stream, p)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	onDisk := readFile(t, path)
	if !bytes.Equal(onDisk, stream.Bytes()) {
		t.Fatalf("frame stream differs from log file: %d vs %d bytes", len(stream.Bytes()), len(onDisk))
	}
}

// TestReadFrameErrors covers the three failure shapes: torn header, torn
// payload, and a CRC mismatch.
func TestReadFrameErrors(t *testing.T) {
	full := EncodeFrame([]byte("payload"))

	if _, err := ReadFrame(bytes.NewReader(full[:5]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(full[:len(full)-2]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn payload: got %v", err)
	}
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("flipped byte: got %v, want ErrFrameCorrupt", err)
	}
	huge := EncodeFrame([]byte("x"))
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadFrame(bytes.NewReader(huge), nil); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("implausible length: got %v, want ErrFrameCorrupt", err)
	}
}

// TestCloseSyncsAndIsIdempotent: Close under SyncNever must flush the
// buffered tail (the record stays replayable), a second Close is a no-op,
// and appends after Close report ErrClosed.
func TestCloseSyncsAndIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := openCollect(t, path, Options{Sync: SyncNever})
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("after")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: got %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: got %v, want ErrClosed", err)
	}
	if err := l.Reset(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset after Close: got %v, want ErrClosed", err)
	}
	_, recs, _ := openCollect(t, path, Options{Sync: SyncNever})
	if len(recs) != 1 || string(recs[0]) != "tail" {
		t.Fatalf("reopen after Close: got %d records %q", len(recs), recs)
	}
}
