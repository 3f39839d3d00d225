package lattice

import "minup/internal/fault"

// OpCounts tallies the primitive lattice operations performed through a
// Counted wrapper — the encoding-layer cost the complexity analysis of §5
// charges per constraint check. The counts are plain integers owned by one
// solver session; they are not safe for concurrent mutation.
type OpCounts struct {
	Lub       uint64 // least-upper-bound operations
	Glb       uint64 // greatest-lower-bound operations
	Dominates uint64 // dominance tests
	Covers    uint64 // immediate-descendant expansions
}

// Total returns the sum of all operation counts.
func (c OpCounts) Total() uint64 { return c.Lub + c.Glb + c.Dominates + c.Covers }

// Counted forwards every Lattice operation to L, counting lub/glb/
// dominance/covers calls into C. It is the op-counter hook behind the
// solver's zero-cost-when-nil guarantee: Instrument returns the lattice
// unchanged when no counter block is supplied, so uninstrumented solves
// never pay the forwarding indirection. A Counted value serves one
// goroutine; concurrent solves each wrap the shared base lattice with their
// own counter block.
type Counted struct {
	L Lattice
	C *OpCounts
	// F, when non-nil, arms the wrapper's fault points ("lattice.lub",
	// "lattice.glb", "lattice.dominates", "lattice.covers") for chaos
	// testing: delay rules simulate slow lattice encodings, panic rules a
	// buggy one. Cancel rules panic (these call sites return values, not
	// errors); the solver's recovery guard converts that to a typed
	// internal error. Nil costs one comparison per operation, and the
	// wrapper itself is only installed when counting or injection is
	// requested, so the uninstrumented solve path is untouched.
	F *fault.Injector
}

// Instrument wraps l so its operations count into c. When c is nil the
// lattice is returned unchanged — the zero-cost path.
func Instrument(l Lattice, c *OpCounts) Lattice {
	if c == nil {
		return l
	}
	return &Counted{L: l, C: c}
}

// Name returns the underlying lattice's name.
func (w *Counted) Name() string { return w.L.Name() }

// Top returns ⊤ of the underlying lattice.
func (w *Counted) Top() Level { return w.L.Top() }

// Bottom returns ⊥ of the underlying lattice.
func (w *Counted) Bottom() Level { return w.L.Bottom() }

// Dominates counts and forwards a ≽ b.
func (w *Counted) Dominates(a, b Level) bool {
	w.C.Dominates++
	if w.F != nil {
		w.F.HitValue("lattice.dominates")
	}
	return w.L.Dominates(a, b)
}

// Lub counts and forwards a ⊔ b.
func (w *Counted) Lub(a, b Level) Level {
	w.C.Lub++
	if w.F != nil {
		w.F.HitValue("lattice.lub")
	}
	return w.L.Lub(a, b)
}

// Glb counts and forwards a ⊓ b.
func (w *Counted) Glb(a, b Level) Level {
	w.C.Glb++
	if w.F != nil {
		w.F.HitValue("lattice.glb")
	}
	return w.L.Glb(a, b)
}

// Covers counts and forwards the immediate-descendant expansion.
func (w *Counted) Covers(a Level) []Level {
	w.C.Covers++
	if w.F != nil {
		w.F.HitValue("lattice.covers")
	}
	return w.L.Covers(a)
}

// CoveredBy forwards the immediate-ancestor expansion (uncounted: it is
// not on any solver hot path).
func (w *Counted) CoveredBy(a Level) []Level { return w.L.CoveredBy(a) }

// Height forwards to the underlying lattice.
func (w *Counted) Height() int { return w.L.Height() }

// Contains forwards to the underlying lattice.
func (w *Counted) Contains(l Level) bool { return w.L.Contains(l) }

// FormatLevel forwards to the underlying lattice.
func (w *Counted) FormatLevel(l Level) string { return w.L.FormatLevel(l) }

// ParseLevel forwards to the underlying lattice.
func (w *Counted) ParseLevel(s string) (Level, error) { return w.L.ParseLevel(s) }

// Lookup forwards to the underlying lattice.
func (w *Counted) Lookup(s string) (Level, bool) { return w.L.Lookup(s) }
