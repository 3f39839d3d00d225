package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"minup/internal/wal"
)

// FuzzWALRecord checks the record codec against encoding/json: the bytes
// encodeRecord and sequenced write are json.Marshal's for the record,
// escapes and all, and decodeRecord reads them back as json.Unmarshal does.
func FuzzWALRecord(f *testing.F) {
	f.Add(uint64(1), "put", "p", "chain mil\nlevels U C S TS\n", "attrs a b\nlub(a, b) >= S\n")
	f.Add(uint64(0), "delete", "x.y_z-1", "", "")
	f.Add(uint64(1)<<63+12345, "append", "n", "", "# <html> & \"q\" \\ \t\x01\x7f\n")
	f.Add(uint64(18446744073709551615), "op\xff", "caf\xc3\xa9\xe2\x80\xa8", "\xed\xa0\x80\xc3", "\xf0\x9f\x98\x80\xe2\x80\xa9")
	f.Fuzz(func(t *testing.T, seq uint64, op, name, lattice, constraints string) {
		rec := walRecord{Seq: seq, Op: op, Name: name, Lattice: lattice, Constraints: constraints}
		buf := encodeRecord(rec)
		if len(buf) != cap(buf) {
			t.Fatalf("record of %d bytes in a buffer of %d", len(buf), cap(buf))
		}
		got := sequenced(buf, seq)
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record writer differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
		back, err := decodeRecord(got)
		if err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		var ref walRecord
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if back != ref {
			t.Fatalf("decodeRecord(%s) = %+v, json.Unmarshal reads %+v", got, back, ref)
		}
	})
}

// TestEncodeRecordAllocatesOnce: a record, sequence number included, is
// one allocation at its final size; the scratch buffer it is escaped into
// comes from a pool.
func TestEncodeRecordAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops buffers it is given")
	}
	rec := walRecord{Op: "put", Name: "p", Lattice: "chain mil\nlevels U C S TS\n", Constraints: "a >= S\nb >= a\n"}
	if n := testing.AllocsPerRun(100, func() { sequenced(encodeRecord(rec), 12) }); n != 1 {
		t.Fatalf("encoding a record allocates %v times, want 1", n)
	}
}

// TestDecodeRecordRefusals: what json.Marshal never writes is refused.
func TestDecodeRecordRefusals(t *testing.T) {
	for _, in := range []string{
		`{"seq":1,"op":"put","name":"p","name":"q"}`,
		`{"seq":1,"Op":"put","name":"p"}`,
		`{"seq":1,"op":"put","name":"p","version":2}`,
		`{"seq":-1,"op":"put","name":"p"}`,
		`{"seq":1.5,"op":"put","name":"p"}`,
		`{"seq":1,"op":"put","name":"p"} {}`,
		`{"seq":1,"op":"put","name":"p"`,
	} {
		if rec, err := decodeRecord([]byte(in)); err == nil {
			t.Errorf("decodeRecord(%s) = %+v, want an error", in, rec)
		}
	}
}

// TestParentWALReplays: testdata/parent-wal is a two-shard data directory
// written by the catalog before it had its own record codec (commit
// 5f53f48, which encoded records with json.Marshal): three policies in
// snapshots, then eight logged records whose texts hold every escape
// json.Marshal writes (<, >, &, quotes, backslashes, control bytes,
// U+2028, and U+FFFD for invalid UTF-8). It must replay to the fingerprint
// that code computed from it, and every logged record must decode to a
// record the writer writes back as json.Marshal does; where the texts are
// valid UTF-8, those are the logged bytes themselves.
func TestParentWALReplays(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/parent-wal")
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata/parent-wal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) != ".wal" {
			continue
		}
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := wal.ReadFrame(br, nil)
			if err != nil {
				break
			}
			logged++
			rec, err := decodeRecord(payload)
			if err != nil {
				t.Fatalf("%s: decoding %s: %v", e.Name(), payload, err)
			}
			got := sequenced(encodeRecord(rec), rec.Seq)
			want, _ := json.Marshal(rec)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: record writes back as\n%s\njson.Marshal writes\n%s", e.Name(), got, want)
			}
			if !bytes.Contains(payload, []byte(`\ufffd`)) && !bytes.Equal(got, payload) {
				t.Errorf("%s: record writes back as\n%s\nlogged as\n%s", e.Name(), got, payload)
			}
		}
	}
	if logged != 8 {
		t.Fatalf("fixture logs %d records, want 8", logged)
	}
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ri := c.RecoveryInfo(); ri.SnapshotPolicies != 3 || ri.WALRecords != 8 || ri.TornTail {
		t.Fatalf("recovery %+v, want 3 snapshot policies and 8 replayed records", ri)
	}
	want, err := os.ReadFile("testdata/parent-wal.fingerprint.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("replayed fingerprint\n%s\nwant\n%s", got, want)
	}
}

// TestRecordStringsOwnTheirBytes: the name and texts a version keeps from
// a replicated record (ApplyRecord) or a logged one (replayRecord, which
// WAL replay calls with windows of the file's buffer) share no memory with
// the payload, so the version does not keep the payload alive.
func TestRecordStringsOwnTheirBytes(t *testing.T) {
	// The name and the constraint text have no escapes, so a reader that
	// returned windows would return them.
	payload := []byte(`{"seq":1,"op":"put","name":"p","lattice":"chain mil\nlevels U C S TS\n","constraints":"a >= S"}`)
	within := func(s string) bool {
		lo := uintptr(unsafe.Pointer(&payload[0]))
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return lo <= p && p < lo+uintptr(len(payload))
	}
	check := func(how string, p *policy) {
		t.Helper()
		if p == nil {
			t.Fatalf("%s: no policy", how)
		}
		for what, s := range map[string]string{"name": p.name, "lattice": p.latticeText, "constraints": p.consTexts[0]} {
			if within(s) {
				t.Errorf("%s: the %s %q shares memory with the record", how, what, s)
			}
		}
	}

	c := mustOpen(t, Options{Shards: 1})
	if _, err := c.ApplyRecord(0, payload); err != nil {
		t.Fatal(err)
	}
	s := c.shards[0]
	s.mu.RLock()
	check("ApplyRecord", s.pol["p"])
	s.mu.RUnlock()

	replayed := &shard{pol: make(map[string]*policy)}
	if err := replayed.replayRecord(payload); err != nil {
		t.Fatal(err)
	}
	check("replayRecord", replayed.pol["p"])
}
