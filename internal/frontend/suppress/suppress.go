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
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"unicode"

	"minup/internal/constraint"
	"minup/internal/frontend"
	"minup/internal/jsoncodec"
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
		// A level named like a cell would make that cell's attribute name
		// read back as a level from the stored constraint text.
		if i, j, ok := cellOf(l); ok && i < t.Rows && j < t.Cols {
			return fmt.Errorf("suppress: level %q has the name of cell (%d,%d)", l, i, j)
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

// cellName is the attribute name of cell (i,j) in the compiled text.
func cellName(i, j int) string { return "r" + strconv.Itoa(i) + "c" + strconv.Itoa(j) }

// cellNameLen is len(cellName(i, j)).
func cellNameLen(i, j int) int { return len("rc") + digits(i) + digits(j) }

// digits is the length of the decimal form of n >= 0.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// cellNames is every cell name of a rows×cols table, row-major, in one
// string.
func cellNames(rows, cols int) string {
	size := 0
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			size += cellNameLen(i, j)
		}
	}
	var b strings.Builder
	b.Grow(size)
	var name [2*20 + len("rc")]byte
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			n := strconv.AppendInt(append(name[:0], 'r'), int64(i), 10)
			b.Write(strconv.AppendInt(append(n, 'c'), int64(j), 10))
		}
	}
	return b.String()
}

// cellOf reports the cell whose attribute name s is, if s is one: s is
// cellName(i, j) for some i, j >= 0.
func cellOf(s string) (i, j int, ok bool) {
	rest, found := strings.CutPrefix(s, "r")
	row, col, found2 := strings.Cut(rest, "c")
	if !found || !found2 {
		return 0, 0, false
	}
	i, err := strconv.Atoi(row)
	if err != nil || i < 0 {
		return 0, 0, false
	}
	if j, err = strconv.Atoi(col); err != nil || j < 0 {
		return 0, 0, false
	}
	return i, j, cellName(i, j) == s
}

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

var (
	tableFields = []string{"name", "levels", "rows", "cols", "sensitive"}
	cellFields  = []string{"row", "col", "level"}
)

// Parse implements frontend.Frontend. The instance is one JSON object and
// nothing after it but white space, read with internal/jsoncodec: a field
// it does not name, or one given twice or spelled in another letter case,
// is refused, and null is taken wherever encoding/json takes it. The
// levels are substrings of one copy of data; the name, which a stored
// policy may keep, is copied out on its own.
func (Frontend) Parse(data []byte) (frontend.Instance, error) {
	t := new(Table)
	d := jsoncodec.NewDecoder(string(data))
	var err error
	if !d.Null() {
		err = decodeTable(&d, t)
	}
	if err == nil {
		err = d.Finish("instance")
	}
	if err != nil {
		return nil, fmt.Errorf("suppress: decoding instance: %w", err)
	}
	t.Name = strings.Clone(t.Name)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeTable reads the instance object into t.
func decodeTable(d *jsoncodec.Decoder, t *Table) error {
	return d.Object(tableFields, func(i int) (err error) {
		if d.Null() {
			return nil
		}
		switch i {
		case 0:
			t.Name, err = d.Str()
		case 1:
			t.Levels, err = d.Strings(nil)
		case 2:
			t.Rows, err = d.Int()
		case 3:
			t.Cols, err = d.Int()
		default:
			t.Sensitive = []Cell{}
			err = d.Array(func() error {
				var c Cell
				if !d.Null() {
					if err := decodeCell(d, &c); err != nil {
						return err
					}
				}
				t.Sensitive = append(t.Sensitive, c)
				return nil
			})
		}
		return err
	})
}

// decodeCell reads one sensitive cell's object into c.
func decodeCell(d *jsoncodec.Decoder, c *Cell) error {
	return d.Object(cellFields, func(i int) (err error) {
		if d.Null() {
			return nil
		}
		switch i {
		case 0:
			c.Row, err = d.Int()
		case 1:
			c.Col, err = d.Int()
		default:
			c.Level, err = d.Str()
		}
		return err
	})
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
	// Each cell's name, once, in row-major and in column-major order, so
	// every row and every column is one window. The names are substrings
	// of one string holding them all, row-major.
	names := cellNames(t.Rows, t.Cols)
	rows := make([]string, t.Rows*t.Cols)
	cols := make([]string, t.Rows*t.Cols)
	for i, at := 0, 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			n := names[at : at+cellNameLen(i, j)]
			at += len(n)
			rows[i*t.Cols+j] = n
			cols[j*t.Rows+i] = n
		}
	}
	size := len("attrs\n") + len(names) + len(rows)
	var b strings.Builder
	// A sensitive cell's lines name about one row and one column of cells.
	b.Grow(size + len(t.Sensitive)*(size/t.Rows+size/t.Cols)*3/2)
	frontend.WriteAttrs(&b, rows)
	mates := make([]string, 0, max(t.Rows, t.Cols))
	for _, c := range t.Sensitive {
		k := c.Row*t.Cols + c.Col
		frontend.WriteConstraint(&b, rows[k:k+1], c.Level)
		row := rows[c.Row*t.Cols : (c.Row+1)*t.Cols]
		mates = append(append(mates[:0], row[:c.Col]...), row[c.Col+1:]...)
		frontend.WriteConstraint(&b, mates, rows[k])
		col := cols[c.Col*t.Rows : (c.Col+1)*t.Rows]
		mates = append(append(mates[:0], col[:c.Row]...), col[c.Row+1:]...)
		frontend.WriteConstraint(&b, mates, rows[k])
	}
	return &frontend.Compiled{
		LatticeText:    frontend.LatticeString("suppress", t.Levels),
		ConstraintText: b.String(),
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
func (Frontend) Oracle(inst frontend.Instance, set *constraint.Set, m constraint.Assignment) error {
	t, ok := inst.(*Table)
	if !ok {
		return fmt.Errorf("suppress: oracle on %T", inst)
	}
	lat := set.Lattice()
	if len(m) != set.NumAttrs() {
		return fmt.Errorf("suppress: assignment covers %d of %d cells", len(m), set.NumAttrs())
	}
	ids := make([]constraint.Attr, t.Rows*t.Cols)
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			a, ok := set.AttrByName(cellName(i, j))
			if !ok {
				return fmt.Errorf("suppress: set has no attribute for cell (%d,%d)", i, j)
			}
			ids[i*t.Cols+j] = a
		}
	}
	level := func(i, j int) lattice.Level { return m[ids[i*t.Cols+j]] }
	if err := secure(t, lat, level); err != nil {
		return err
	}
	// Minimality sweep: try every one-step (and deeper) declassification of
	// every cell; each must break the security condition.
	enum := lat.(lattice.Enumerable)
	lowered := m.Clone()
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			a := ids[i*t.Cols+j]
			own := m[a]
			for _, lower := range enum.Elements() {
				if lower == own || !lat.Dominates(own, lower) {
					continue
				}
				lowered[a] = lower
				err := secure(t, lat, func(ri, rj int) lattice.Level { return lowered[ids[ri*t.Cols+rj]] })
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
