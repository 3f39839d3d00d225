package catalog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSnapshot checks the snapshot writer against encoding/json:
// encodeSnapshot writes the bytes json.MarshalIndent writes for the
// snapshot, two-space indent and a trailing newline, into one allocation
// of exactly their length. shape picks the number of policies (its low two
// bits), the form of their constraint lists (the next two: split at NUL,
// empty, nil or one text) and a nil policy list when there are none (the
// top bit).
func FuzzSnapshot(f *testing.F) {
	f.Add(uint64(0), "", uint64(0), "", "", uint8(0))
	f.Add(uint64(0), "", uint64(0), "", "", uint8(0x80))
	f.Add(uint64(12), "p", uint64(3), "chain mil\nlevels U C S TS\n", "attrs a b\nlub(a, b) >= S\n\x00c >= a\n", uint8(2))
	f.Add(uint64(1)<<63+7, "n\"q\\<>&  \t\x01", uint64(18446744073709551615),
		"# <html> & \"q\"\n", "x >= S\n\x00\xff\xed\xa0\x80\xc3\x00", uint8(3))
	f.Add(uint64(9), "caf\xc3\xa9\xe2\x80\xa8", uint64(1), "\xed\xa0\x80", "", uint8(1|1<<2))
	f.Add(uint64(9), "a", uint64(10), "l", "t", uint8(2|2<<2))
	f.Add(uint64(9), "b", uint64(99), "l", "\xf0\x9f\x98\x80", uint8(1|3<<2))
	f.Fuzz(func(t *testing.T, seq uint64, name string, version uint64, lattice, texts string, shape uint8) {
		var pols []snapshotPolicy
		if shape&0x80 == 0 {
			pols = []snapshotPolicy{}
		}
		for i := range int(shape & 3) {
			// Each policy names a suffix of name, so names may repeat.
			p := snapshotPolicy{Name: name[i*len(name)/3:], Version: version + uint64(i), Lattice: lattice}
			switch shape >> 2 & 3 {
			case 0:
				p.Constraints = strings.Split(texts, "\x00")
			case 1:
				p.Constraints = []string{}
			case 3:
				p.Constraints = []string{texts}
			}
			pols = append(pols, p)
		}
		got := encodeSnapshot(seq, pols)
		if len(got) != cap(got) {
			t.Fatalf("snapshot of %d bytes in a buffer of %d", len(got), cap(got))
		}
		// encodeSnapshot sorted pols in place, as MarshalIndent sees them.
		want, err := json.MarshalIndent(snapshotFile{LastSeq: seq, Policies: pols}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("snapshot writer differs from json.MarshalIndent:\n got %s\nwant %s", got, want)
		}
	})
}

// TestSnapshotFilesWriteBack: the snapshots in testdata/parent-wal, which
// the catalog wrote with json.MarshalIndent, read back to policies the
// writer writes as the same bytes.
func TestSnapshotFilesWriteBack(t *testing.T) {
	files, err := filepath.Glob("testdata/parent-wal/*.snap")
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot files in the fixture (%v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if got := encodeSnapshot(snap.LastSeq, snap.Policies); !bytes.Equal(got, data) {
			t.Errorf("%s writes back as\n%s\nwant\n%s", file, got, data)
		}
	}
}
