// Package suppress compiles two-dimensional cross-tabulated cell
// suppression into the constraint engine, after Kao's "Data Security
// Equals Graph Connectivity".
//
// The source problem: a rows×cols table of counts whose row and column
// marginal totals are always published. Some cells are sensitive, each
// with a required protection level drawn from a chain of security levels
// (bottom = public). A classification assigns every cell a level; a viewer
// cleared to level l sees exactly the cells classified ≼ l, plus all
// marginals. The attacker model is single-equation marginal inference —
// Kao's weakest security level: a hidden cell's value is inferable when it
// is the only hidden cell in its row or in its column, because one
// published marginal minus the visible cells then determines it. (Kao's
// stronger levels — iterated peeling, which protects exactly the 2-core of
// the suppressed bipartite graph, and full linear-algebra attackers, which
// need 2-edge-connectivity — are diagnostics for future work; the oracle
// here enforces precisely the model the compiler targets.)
//
// The reduction views the table as Kao does: rows and columns are the two
// vertex classes of a bipartite graph and each hidden cell is an edge, so
// "not the only hidden cell in its row/column" says every sensitive edge
// shares each endpoint with another suppressed edge — the connectivity
// degree condition. In the constraint language that becomes, for each
// sensitive cell s = (i,j):
//
//	s >= L                       (required protection floor)
//	lub(row i \ {s}) >= λ(s)     (complementary suppression in the row)
//	lub(col j \ {s}) >= λ(s)     (complementary suppression in the column)
//
// The complementary constraints are exact, not approximate: for any
// lattice, lub over the row-mates dominates λ(s) iff at every clearance
// from which s is hidden some row-mate is hidden too (take l = lub of the
// row-mates for the only-if direction). So the engine's satisfying
// assignments are exactly the source-secure classifications, and the
// engine's pointwise-minimal solution is pointwise-minimal suppression —
// which the Oracle re-derives from the source definition alone.
package suppress

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"unicode"

	"minup/internal/constraint"
	"minup/internal/frontend"
	"minup/internal/lattice"
)

// FamilyName is the registry key and URL path element for this frontend.
const FamilyName = "suppress"

// Size caps keep parsed (and fuzzed) instances bounded: the compiled
// constraint set is O(sensitive × (rows+cols)) and the oracle sweep is
// polynomial in cells × levels.
const (
	maxDim    = 64
	maxCells  = 4096
	maxLevels = 16
)

// Cell marks one sensitive cell and its required protection level.
type Cell struct {
	Row   int    `json:"row"`
	Col   int    `json:"col"`
	Level string `json:"level"`
}

// Table is the round-trippable JSON instance format: grid dimensions, the
// chain of levels (bottom-up; the bottom level is "published"), and the
// sensitive cells. Non-sensitive cells carry no requirement — the solver
// may still have to upgrade them as complementary suppressions.
type Table struct {
	Name string `json:"name"`
	// Levels is the security chain bottom-up, e.g. ["public","secret"].
	Levels    []string `json:"levels"`
	Rows      int      `json:"rows"`
	Cols      int      `json:"cols"`
	Sensitive []Cell   `json:"sensitive"`
}

// Family implements frontend.Instance.
func (t *Table) Family() string { return FamilyName }

// InstanceName implements frontend.Instance.
func (t *Table) InstanceName() string { return t.Name }

// Validate implements frontend.Instance: structural well-formedness plus
// the size caps. A sensitive cell needs at least one row-mate and one
// column-mate to have any complementary suppression available, so tables
// must be at least 2×2.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("suppress: instance has no name")
	}
	if t.Rows < 2 || t.Cols < 2 {
		return fmt.Errorf("suppress: table must be at least 2x2, have %dx%d", t.Rows, t.Cols)
	}
	if t.Rows > maxDim || t.Cols > maxDim || t.Rows*t.Cols > maxCells {
		return fmt.Errorf("suppress: table %dx%d exceeds the %dx%d/%d-cell cap", t.Rows, t.Cols, maxDim, maxDim, maxCells)
	}
	if len(t.Levels) < 2 || len(t.Levels) > maxLevels {
		return fmt.Errorf("suppress: need 2..%d levels, have %d", maxLevels, len(t.Levels))
	}
	seenLevel := make(map[string]bool, len(t.Levels))
	for _, l := range t.Levels {
		// The stored lattice's levels line is split with strings.Fields,
		// so a name with white space of any kind would come back as several.
		if l == "" || strings.ContainsAny(l, "(),") || strings.ContainsFunc(l, unicode.IsSpace) {
			return fmt.Errorf("suppress: invalid level name %q", l)
		}
		if seenLevel[l] {
			return fmt.Errorf("suppress: duplicate level %q", l)
		}
		seenLevel[l] = true
	}
	if len(t.Sensitive) == 0 {
		return fmt.Errorf("suppress: no sensitive cells")
	}
	seenCell := make(map[[2]int]bool, len(t.Sensitive))
	for _, c := range t.Sensitive {
		if c.Row < 0 || c.Row >= t.Rows || c.Col < 0 || c.Col >= t.Cols {
			return fmt.Errorf("suppress: sensitive cell (%d,%d) outside the %dx%d table", c.Row, c.Col, t.Rows, t.Cols)
		}
		if seenCell[[2]int{c.Row, c.Col}] {
			return fmt.Errorf("suppress: sensitive cell (%d,%d) listed twice", c.Row, c.Col)
		}
		seenCell[[2]int{c.Row, c.Col}] = true
		if c.Level == t.Levels[0] {
			return fmt.Errorf("suppress: sensitive cell (%d,%d) at the bottom (published) level %q", c.Row, c.Col, c.Level)
		}
		if !seenLevel[c.Level] {
			return fmt.Errorf("suppress: sensitive cell (%d,%d) has unknown level %q", c.Row, c.Col, c.Level)
		}
	}
	return nil
}

// cellName is the attribute name of cell (i,j) in the compiled set.
func cellName(i, j int) string { return fmt.Sprintf("r%dc%d", i, j) }

// GenSpec shapes a seeded random table. Zero fields take defaults.
type GenSpec struct {
	Seed int64
	Rows int // default 5
	Cols int // default 6
	// Levels is the chain height (default 3).
	Levels int
	// Density is the fraction of cells that are sensitive (default 0.15);
	// at least one sensitive cell is always emitted.
	Density float64
}

// genLevelNames are the default level names generators draw from,
// bottom-up. The bottom level is the published one.
var genLevelNames = []string{"open", "guarded", "secret", "topsecret", "l4", "l5", "l6", "l7"}

// Generate builds a seeded random instance. Deterministic in the spec:
// the generator owns a private rand.Rand derived from Seed alone, per the
// workload family registry's independence contract.
func Generate(spec GenSpec) (*Table, error) {
	if spec.Rows == 0 {
		spec.Rows = 5
	}
	if spec.Cols == 0 {
		spec.Cols = 6
	}
	if spec.Levels == 0 {
		spec.Levels = 3
	}
	if spec.Density == 0 {
		spec.Density = 0.15
	}
	if spec.Levels < 2 || spec.Levels > len(genLevelNames) {
		return nil, fmt.Errorf("suppress: generator levels must be 2..%d, have %d", len(genLevelNames), spec.Levels)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	t := &Table{
		Name:   fmt.Sprintf("suppress-s%d-%dx%d", spec.Seed, spec.Rows, spec.Cols),
		Levels: append([]string(nil), genLevelNames[:spec.Levels]...),
		Rows:   spec.Rows,
		Cols:   spec.Cols,
	}
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			if rng.Float64() < spec.Density {
				t.Sensitive = append(t.Sensitive, Cell{Row: i, Col: j, Level: t.Levels[1+rng.Intn(len(t.Levels)-1)]})
			}
		}
	}
	if len(t.Sensitive) == 0 {
		t.Sensitive = append(t.Sensitive, Cell{
			Row: rng.Intn(t.Rows), Col: rng.Intn(t.Cols),
			Level: t.Levels[1+rng.Intn(len(t.Levels)-1)],
		})
	}
	return t, t.Validate()
}

// Frontend is the suppress implementation of frontend.Frontend.
type Frontend struct{}

// Family implements frontend.Frontend.
func (Frontend) Family() string { return FamilyName }

// Describe implements frontend.Frontend.
func (Frontend) Describe() string {
	return "2-D cross-tab cell suppression with published marginals (Kao): complementary suppression as connectivity constraints"
}

// Parse implements frontend.Frontend.
func (Frontend) Parse(data []byte) (frontend.Instance, error) {
	var t Table
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("suppress: decoding instance: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Generate implements frontend.Frontend: size scales the grid (size×size+1
// cells at the default density).
func (Frontend) Generate(seed int64, size int) (frontend.Instance, error) {
	if size < 2 {
		size = 2
	}
	if size > maxDim-1 {
		size = maxDim - 1
	}
	return Generate(GenSpec{Seed: seed, Rows: size, Cols: size + 1})
}

// Compile implements frontend.Frontend: one attribute per cell, a floor
// constraint per sensitive cell, and the two complementary-suppression
// constraints tying each sensitive cell to its row and column.
func (Frontend) Compile(inst frontend.Instance) (*frontend.Compiled, error) {
	t, ok := inst.(*Table)
	if !ok {
		return nil, fmt.Errorf("suppress: cannot compile %T", inst)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	lat, err := lattice.NewChain("suppress", t.Levels...)
	if err != nil {
		return nil, fmt.Errorf("suppress: building level chain: %w", err)
	}
	set := constraint.NewSet(lat)
	attrs := make([][]constraint.Attr, t.Rows)
	for i := range attrs {
		attrs[i] = make([]constraint.Attr, t.Cols)
		for j := range attrs[i] {
			a, err := set.AddAttr(cellName(i, j))
			if err != nil {
				return nil, fmt.Errorf("suppress: cell (%d,%d): %w", i, j, err)
			}
			attrs[i][j] = a
		}
	}
	for _, c := range t.Sensitive {
		lvl, err := lat.ParseLevel(c.Level)
		if err != nil {
			return nil, fmt.Errorf("suppress: cell (%d,%d): %w", c.Row, c.Col, err)
		}
		cell := attrs[c.Row][c.Col]
		if err := set.Add([]constraint.Attr{cell}, constraint.LevelRHS(lvl)); err != nil {
			return nil, err
		}
		rowMates := make([]constraint.Attr, 0, t.Cols-1)
		for j := 0; j < t.Cols; j++ {
			if j != c.Col {
				rowMates = append(rowMates, attrs[c.Row][j])
			}
		}
		if err := set.Add(rowMates, constraint.AttrRHS(cell)); err != nil {
			return nil, err
		}
		colMates := make([]constraint.Attr, 0, t.Rows-1)
		for i := 0; i < t.Rows; i++ {
			if i != c.Row {
				colMates = append(colMates, attrs[i][c.Col])
			}
		}
		if err := set.Add(colMates, constraint.AttrRHS(cell)); err != nil {
			return nil, err
		}
	}
	consText, err := frontend.ConstraintString(set)
	if err != nil {
		return nil, err
	}
	return &frontend.Compiled{
		Family:         FamilyName,
		Name:           t.Name,
		Instance:       t,
		Lattice:        lat,
		Set:            set,
		LatticeText:    frontend.LatticeString("suppress", t.Levels),
		ConstraintText: consText,
	}, nil
}

// secure checks the source-level security condition of an assignment:
// every sensitive cell meets its required floor, and from every clearance
// from which a sensitive cell is hidden, both its row and its column
// contain at least one other hidden cell — so no single published marginal
// determines it. Returns a descriptive error for the first violation.
func secure(t *Table, lat lattice.Lattice, level func(i, j int) lattice.Level) error {
	enum, ok := lat.(lattice.Enumerable)
	if !ok {
		return fmt.Errorf("suppress: oracle needs an enumerable lattice")
	}
	for _, c := range t.Sensitive {
		req, err := lat.ParseLevel(c.Level)
		if err != nil {
			return err
		}
		own := level(c.Row, c.Col)
		if !lat.Dominates(own, req) {
			return fmt.Errorf("suppress: sensitive cell (%d,%d) classified %s below its required %s",
				c.Row, c.Col, lat.FormatLevel(own), c.Level)
		}
		for _, viewer := range enum.Elements() {
			if lat.Dominates(viewer, own) {
				continue // cleared for the cell: sees it legitimately
			}
			rowHidden, colHidden := false, false
			for j := 0; j < t.Cols && !rowHidden; j++ {
				if j != c.Col && !lat.Dominates(viewer, level(c.Row, j)) {
					rowHidden = true
				}
			}
			for i := 0; i < t.Rows && !colHidden; i++ {
				if i != c.Row && !lat.Dominates(viewer, level(i, c.Col)) {
					colHidden = true
				}
			}
			if !rowHidden {
				return fmt.Errorf("suppress: cell (%d,%d) inferable from its row marginal by a %s viewer (only hidden cell in row %d)",
					c.Row, c.Col, lat.FormatLevel(viewer), c.Row)
			}
			if !colHidden {
				return fmt.Errorf("suppress: cell (%d,%d) inferable from its column marginal by a %s viewer (only hidden cell in column %d)",
					c.Row, c.Col, lat.FormatLevel(viewer), c.Col)
			}
		}
	}
	return nil
}

// Oracle implements frontend.Frontend: re-derives security and minimality
// from the source-problem definition only (no reference to the compiled
// constraints). Security is the marginal-inference condition above;
// minimality demands that lowering any single cell to any strictly lower
// level breaks security — i.e. every upgrade the solver kept is load-
// bearing as a complementary suppression or a required floor.
func (Frontend) Oracle(c *frontend.Compiled, m constraint.Assignment) error {
	t, ok := c.Instance.(*Table)
	if !ok {
		return fmt.Errorf("suppress: oracle on %T", c.Instance)
	}
	lat := c.Lattice
	if len(m) != c.Set.NumAttrs() {
		return fmt.Errorf("suppress: assignment covers %d of %d cells", len(m), c.Set.NumAttrs())
	}
	attrOf := func(i, j int) constraint.Attr {
		a, ok := c.Set.AttrByName(cellName(i, j))
		if !ok {
			panic(fmt.Sprintf("suppress: compiled set missing cell (%d,%d)", i, j))
		}
		return a
	}
	level := func(i, j int) lattice.Level { return m[attrOf(i, j)] }
	if err := secure(t, lat, level); err != nil {
		return err
	}
	// Minimality sweep: try every one-step (and deeper) declassification of
	// every cell; each must break the security condition.
	enum := lat.(lattice.Enumerable)
	lowered := m.Clone()
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			a := attrOf(i, j)
			own := m[a]
			for _, lower := range enum.Elements() {
				if lower == own || !lat.Dominates(own, lower) {
					continue
				}
				lowered[a] = lower
				err := secure(t, lat, func(ri, rj int) lattice.Level { return lowered[attrOf(ri, rj)] })
				lowered[a] = own
				if err == nil {
					return fmt.Errorf("suppress: not minimal: cell (%d,%d) can be lowered %s -> %s without exposing any sensitive cell",
						i, j, lat.FormatLevel(own), lat.FormatLevel(lower))
				}
			}
		}
	}
	return nil
}

func init() { frontend.Register(Frontend{}) }
