package experiments

import (
	"math"
	"strings"
	"testing"

	"minup/internal/core"
	"minup/internal/lattice"
)

// The scaling experiments (E2–E8) take seconds to minutes and are run via
// cmd/benchtab; the tests here cover the fast experiments end to end and
// the table plumbing, so the harness itself stays verified by `go test`.

func TestE1Figure2(t *testing.T) {
	table, err := E1Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[3] != "yes" {
			t.Errorf("attribute %s mismatches the paper: %v", row[0], row)
		}
	}
	out := table.Format()
	for _, want := range []string{"E1", "paper:", "attr", "try(F,L2) F"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestE9SemiLattice(t *testing.T) {
	table, err := E9SemiLattice()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if !strings.Contains(table.Rows[0][3], "unsatisfiable") {
		t.Errorf("no-top diagnosis = %q", table.Rows[0][3])
	}
	if !strings.Contains(table.Rows[1][3], "unconstrained") {
		t.Errorf("no-bottom diagnosis = %q", table.Rows[1][3])
	}
}

func TestE10Database(t *testing.T) {
	table, err := E10Database()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 labeled attributes", len(table.Rows))
	}
	joined := strings.Join(table.Notes, " ")
	if !strings.Contains(joined, "open inference channels after labeling: 0") {
		t.Errorf("channels not closed: %v", table.Notes)
	}
	if !strings.Contains(joined, "minimal: true") {
		t.Errorf("not verified minimal: %v", table.Notes)
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 12 || ids[0] != "E1" || ids[11] != "E12" {
		t.Fatalf("ids = %v", ids)
	}
	for _, id := range ids {
		if Registry[id] == nil {
			t.Errorf("missing runner for %s", id)
		}
	}
}

func TestRingWorstCaseShape(t *testing.T) {
	// The E3 adversarial instance must be a single SCC whose minimal
	// solution pins every attribute at the bound level.
	lat := lattice.FigureOneB()
	mid, _ := lat.ParseLevel("L3")
	s := ringWorstCase(lat, 40, mid)
	if s.Acyclic() {
		t.Fatal("ring is acyclic")
	}
	if pr := s.Priorities(); pr.Max != 1 {
		t.Fatalf("ring has %d SCCs, want 1", pr.Max)
	}
	res := core.MustSolve(s, core.Options{})
	for _, a := range s.Attrs() {
		if res.Assignment[a] != mid {
			t.Fatalf("ring attribute %s at %s, want L3",
				s.AttrName(a), lat.FormatLevel(res.Assignment[a]))
		}
	}
	// Quadratic signature: constraint checks scale with N².
	if res.Stats.TrySteps < 40*40/4 {
		t.Errorf("ring try steps = %d, suspiciously low", res.Stats.TrySteps)
	}
}

func TestEntangledCycleShape(t *testing.T) {
	lat := lattice.MustChain("mil", "U", "C", "S", "TS")
	s := entangledCycle(lat, 5, 3)
	if s.Acyclic() {
		t.Fatal("entangled cycle is acyclic")
	}
	res := core.MustSolve(s, core.Options{})
	if v := s.Violations(res.Assignment); v != nil {
		t.Fatalf("violations: %v", v)
	}
}

// TestE2LatticeOpsPerS checks Theorem 5.2's acyclic bound by counting. An
// acyclic solve makes one lattice operation per left-hand-side occurrence
// (a simple constraint's lub, and for a complex one the lub of the other
// members plus the lub of Minlevel's answer), so ops/S = 1 − N_C/S stays
// under 1, and with widths drawn from 1..w for w ≥ 3 above 2/3: within a
// factor 1.5 at every width. A check that scans the left-hand side for each
// member makes ops/S grow with the width.
func TestE2LatticeOpsPerS(t *testing.T) {
	sizes := []int{1000, 4000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		lo, hi := math.Inf(1), 0.0
		for _, w := range e2Widths {
			r := latticeOpsPerS(acyclicWidthSet(n, w))
			t.Logf("n=%d, lhs ≤ %d: %.3f lattice ops per unit of S", n, w, r)
			lo, hi = min(lo, r), max(hi, r)
		}
		if hi >= 1 {
			t.Errorf("n=%d: %.3f lattice ops per unit of S, want under 1", n, hi)
		}
		if hi > 1.5*lo {
			t.Errorf("n=%d: lattice ops per unit of S range from %.3f to %.3f across lhs widths, want within a factor 1.5", n, lo, hi)
		}
	}
}
