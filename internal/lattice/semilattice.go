package lattice

import "fmt"

// Names used for injected dummy elements. Section 6 of the paper handles
// semi-lattices (orders missing a top and/or bottom) by adding dummy
// extremes, running Algorithm 3.1 unchanged, and interpreting attributes
// left at the dummy ⊤ as unsatisfiable requirements and attributes at the
// dummy ⊥ as unconstrained.
const (
	DummyTopName    = "_dummy_top_"
	DummyBottomName = "_dummy_bot_"
)

// Completion records what CompleteToLattice had to add.
type Completion struct {
	AddedTop    bool
	AddedBottom bool
}

// CompleteToLattice builds an Explicit lattice from a cover relation that
// may be missing a unique top and/or bottom, injecting dummy extremes where
// needed (§6, "Semi-lattices"). The resulting order must still be a
// lattice (every pair with an upper bound must have a least upper bound);
// otherwise an error is returned, since arbitrary posets make minimal
// classification NP-complete (Theorem 6.1).
func CompleteToLattice(name string, names []string, covers map[string][]string) (*Explicit, Completion, error) {
	var comp Completion
	for _, nm := range names {
		if nm == DummyTopName || nm == DummyBottomName {
			return nil, comp, fmt.Errorf("lattice %q: element name %q is reserved", name, nm)
		}
	}
	// An undeclared name in covers is NewExplicit's error to report.
	hasIncoming := make(map[string]bool, len(names))
	hasOutgoing := make(map[string]bool, len(names))
	for from, tos := range covers {
		for _, to := range tos {
			hasOutgoing[from] = true
			hasIncoming[to] = true
		}
	}
	var maximal, minimal []string
	for _, nm := range names {
		if !hasIncoming[nm] {
			maximal = append(maximal, nm)
		}
		if !hasOutgoing[nm] {
			minimal = append(minimal, nm)
		}
	}
	allNames := append([]string(nil), names...)
	allCovers := make(map[string][]string, len(covers)+2)
	for k, v := range covers {
		allCovers[k] = v
	}
	if len(maximal) != 1 {
		comp.AddedTop = true
		allNames = append(allNames, DummyTopName)
		allCovers[DummyTopName] = maximal
	}
	if len(minimal) != 1 {
		comp.AddedBottom = true
		allNames = append(allNames, DummyBottomName)
		for _, m := range minimal {
			allCovers[m] = append(append([]string(nil), allCovers[m]...), DummyBottomName)
		}
	}
	e, err := NewExplicit(name, allNames, allCovers)
	if err != nil {
		return nil, comp, err
	}
	return e, comp, nil
}

// IsDummy reports whether a level of an Explicit lattice is one of the
// dummy extremes injected by CompleteToLattice.
func IsDummy(e *Explicit, l Level) bool {
	n := e.FormatLevel(l)
	return n == DummyTopName || n == DummyBottomName
}
