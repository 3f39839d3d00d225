// Package frontendtest holds the problem instances that benchmarks and
// tests in several packages share.
package frontendtest

import (
	"testing"

	"minup/internal/frontend/depinf"
	"minup/internal/frontend/suppress"
)

// ColdCreate returns the frontend instances of perfbench's cold_create
// workload, drawn from seed as perfbench draws them: a 20x21 suppress
// grid and a 504-attribute depinf DAG. The benchmarks use seed 1.
func ColdCreate(tb testing.TB, seed int64) (*suppress.Table, *depinf.Relation) {
	tb.Helper()
	tab, err := suppress.Generate(suppress.GenSpec{Seed: seed, Rows: 20, Cols: 21})
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := depinf.Generate(depinf.GenSpec{Seed: seed, Depth: 24, Width: 21, Fanout: 4, Extra: 128})
	if err != nil {
		tb.Fatal(err)
	}
	return tab, rel
}
