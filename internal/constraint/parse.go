package constraint

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"minup/internal/lattice"
)

// maxLine bounds the length of one line of constraint text.
const maxLine = 4 * 1024 * 1024

// ParseInto reads constraints in a small line-oriented text format into the
// set. Blank lines and '#' comments are ignored. Each remaining line is
// either an attribute declaration
//
//	attrs name salary rank
//
// or a constraint of one of the forms
//
//	salary >= Secret              simple, level rhs
//	salary >= rank                simple, attribute rhs
//	lub(rank, dept) >= salary     complex (association / inference)
//	Secret >= salary              §6 upper bound (lhs is a level)
//
// Tokens that parse as levels of the set's lattice are levels; all other
// identifiers are attributes and are declared on first use. A line of
// 4 MiB or more is refused with bufio.ErrTooLong. ParseInto reads all of r
// before it parses anything, then parses the text as ParseString does.
func (s *Set) ParseInto(r io.Reader) error {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return err
	}
	return s.ParseString(b.String())
}

// ParseString is ParseInto over an in-memory description. It reads the
// text in place: the names it declares are substrings of text and share
// its memory.
func (s *Set) ParseString(text string) error {
	if !s.frozen {
		s.reserve(text)
	}
	// lhs is scratch reused across lines: Add copies what it keeps.
	var buf [8]Attr
	lhs := buf[:0]
	for lineno, rest := 1, text; rest != ""; lineno++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(line) >= maxLine {
			return bufio.ErrTooLong
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if names, ok := strings.CutPrefix(line, "attrs "); ok {
			fields := strings.Fields(names)
			if !s.frozen {
				// Room for the whole line in one step: on a new set that is
				// exact, so the names its clones share carry no slack. An
				// empty index that nothing shares is made at the line's
				// size, so it does not regrow while the line declares.
				s.names = slices.Grow(s.names, len(fields))
				if len(s.index) == 0 && !s.sharedIndex.Load() {
					s.index = make(map[string]Attr, len(fields))
				}
			}
			for _, name := range fields {
				if _, err := s.AddAttr(name); err != nil {
					return fmt.Errorf("line %d: %w", lineno, err)
				}
			}
			continue
		}
		var err error
		if lhs, err = s.parseConstraintLine(line, lhs[:0]); err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	return nil
}

// reserve makes room for what text can add, so that neither the constraint
// list nor the arena grows while it is parsed: one constraint per ">=",
// and one left-hand-side member per ">=" or comma. Counting ">=" rather
// than lines keeps blank lines and declarations from reserving anything.
// It first takes back what s lent to a clone, so the room it makes is s's.
func (s *Set) reserve(text string) {
	s.own()
	cons := strings.Count(text, ">=")
	s.cons = slices.Grow(s.cons, cons)
	if members := cons + strings.Count(text, ","); cap(s.arena)-len(s.arena) < members {
		s.arena = make([]Attr, 0, members)
	}
}

// ParsePolicy builds the set a policy's two source texts describe: the
// lattice text through lattice.Parse, then the constraint text into a new
// set over that lattice. It is the one way a set is made from policy text,
// so the catalog and everything that checks what it serves see the same
// set. An error names the text at fault with a "lattice: " or
// "constraints: " prefix.
func ParsePolicy(latticeText, constraintText string) (*Set, error) {
	// One call, so ParsePolicy inlines like NewSet, and a caller that
	// drops the set keeps it off the heap.
	return new(Set).parsePolicy(latticeText, constraintText)
}

// parsePolicy fills s from the two texts and returns it.
func (s *Set) parsePolicy(latticeText, constraintText string) (*Set, error) {
	lat, err := lattice.Parse(strings.NewReader(latticeText))
	if err != nil {
		return nil, fmt.Errorf("lattice: %w", err)
	}
	// The name index is made by the first declaration: at the attrs
	// line's size when the text starts with one.
	s.lat = lat
	if err := s.ParseString(constraintText); err != nil {
		return nil, fmt.Errorf("constraints: %w", err)
	}
	return s, nil
}

// parseConstraintLine parses one constraint line, collecting its left-hand
// side in lhs (an empty scratch slice); it returns lhs for reuse.
func (s *Set) parseConstraintLine(line string, lhs []Attr) ([]Attr, error) {
	lhsText, rhsText, ok := strings.Cut(line, ">=")
	if !ok {
		return lhs, fmt.Errorf("constraint %q missing '>='", line)
	}
	lhsText = strings.TrimSpace(lhsText)
	rhsText = strings.TrimSpace(rhsText)
	if lhsText == "" || rhsText == "" {
		return lhs, fmt.Errorf("constraint %q has an empty side", line)
	}

	rhs, err := s.parseOperand(rhsText)
	if err != nil {
		return lhs, err
	}

	// Complex lhs: lub(a, b, ...).
	if inner, found := cutLub(lhsText); found {
		for more := true; more; {
			var tok string
			tok, inner, more = strings.Cut(inner, ",")
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return lhs, fmt.Errorf("constraint %q has an empty lub member", line)
			}
			op, err := s.parseOperand(tok)
			if err != nil {
				return lhs, err
			}
			if op.IsLevel {
				return lhs, fmt.Errorf("constraint %q: level %q cannot appear inside lub(...) (levels belong on the right-hand side)", line, tok)
			}
			lhs = append(lhs, op.Attr)
		}
		return lhs, s.Add(lhs, rhs)
	}

	// Simple lhs: a single attribute, or a level (§6 upper bound).
	op, err := s.parseOperand(lhsText)
	if err != nil {
		return lhs, err
	}
	if op.IsLevel {
		if rhs.IsLevel {
			return lhs, fmt.Errorf("constraint %q relates two constants", line)
		}
		return lhs, s.AddUpper(rhs.Attr, op.Level)
	}
	lhs = append(lhs, op.Attr)
	return lhs, s.Add(lhs, rhs)
}

// parseOperand resolves a token: an attribute already declared, else a
// level of the lattice, else a new attribute. The declared-name lookup
// goes first because it is the common case and costs one map lookup;
// it cannot shadow a level, since AddAttr refuses names that parse as
// levels and the lattice never changes.
func (s *Set) parseOperand(tok string) (RHS, error) {
	if a, ok := s.index[tok]; ok {
		return AttrRHS(a), nil
	}
	if lvl, ok := s.lat.Lookup(tok); ok {
		return LevelRHS(lvl), nil
	}
	a, err := s.declare(tok, false)
	if err != nil {
		return RHS{}, err
	}
	return AttrRHS(a), nil
}

// cutLub strips a "lub( ... )" wrapper, reporting whether one was present.
func cutLub(s string) (inner string, found bool) {
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(t, "lub(") || !strings.HasSuffix(t, ")") {
		return "", false
	}
	return t[len("lub(") : len(t)-1], true
}
