package constraint

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

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
// identifiers are attributes and are declared on first use.
func (s *Set) ParseInto(r io.Reader) error {
	sc := bufio.NewScanner(r)
	// Lines may be up to 4 MiB; the buffer starts small and grows only
	// for long ones.
	sc.Buffer(nil, 4*1024*1024)
	// lhs is scratch reused across lines: Add copies what it keeps.
	var lhs []Attr
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "attrs "); ok {
			for _, name := range strings.Fields(rest) {
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
	return sc.Err()
}

// ParseString is ParseInto over an in-memory description.
func (s *Set) ParseString(text string) error {
	return s.ParseInto(strings.NewReader(text))
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
	if lvl, err := s.lat.ParseLevel(tok); err == nil {
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
