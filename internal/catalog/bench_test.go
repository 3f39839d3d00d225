package catalog

import (
	"testing"

	"minup/internal/frontend/depinf"
	"minup/internal/frontend/frontendtest"
	"minup/internal/frontend/suppress"
	"minup/internal/workload"
)

// BenchmarkWALRecord measures the write path's record codec on the put
// records of perfbench's cold_create shapes (25–35 KB each): encode is
// what a mutation runs before and under the shard lock (encodeRecord,
// then sequenced), decode what a follower's ApplyRecord and WAL replay run
// (decodeRecord).
func BenchmarkWALRecord(b *testing.B) {
	paper, err := workload.GenerateFamily("paper", 1, 67)
	if err != nil {
		b.Fatal(err)
	}
	tab, rel := frontendtest.ColdCreate(b, 1)
	sup, err := suppress.Frontend{}.Compile(tab)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := depinf.Frontend{}.Compile(rel)
	if err != nil {
		b.Fatal(err)
	}
	recs := []struct {
		name string
		rec  walRecord
	}{
		{"paper", walRecord{Seq: 1234, Op: "put", Name: "paper-s1", Lattice: paper.Lattice, Constraints: paper.Constraints}},
		{"suppress", walRecord{Seq: 1234, Op: "put", Name: tab.Name, Lattice: sup.LatticeText, Constraints: sup.ConstraintText}},
		{"depinf", walRecord{Seq: 1234, Op: "put", Name: rel.Name, Lattice: dep.LatticeText, Constraints: dep.ConstraintText}},
	}
	b.Run("encode", func(b *testing.B) {
		for _, tc := range recs {
			b.Run(tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					recordSink = sequenced(encodeRecord(tc.rec), tc.rec.Seq)
				}
			})
		}
	})
	b.Run("decode", func(b *testing.B) {
		for _, tc := range recs {
			payload := sequenced(encodeRecord(tc.rec), tc.rec.Seq)
			b.Run(tc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec, err := decodeRecord(payload)
					if err != nil || rec != tc.rec {
						b.Fatalf("decoded %+v, %v", rec.Name, err)
					}
				}
			})
		}
	})
}

// recordSink keeps BenchmarkWALRecord's encoded records live.
var recordSink []byte
