package lattice

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Parse reads a lattice description from a small line-oriented text format
// used by the command-line tools. Blank lines and lines starting with '#'
// are ignored. Three forms are supported:
//
// A chain (total order), levels listed bottom-up:
//
//	chain NAME
//	levels Unclassified Confidential Secret TopSecret
//
// A compartmented MLS lattice:
//
//	mls NAME
//	levels S TS
//	categories Army Nuclear
//
// An arbitrary explicit lattice given by its Hasse diagram; each "cover"
// line says the first element covers (is an immediate ancestor of) the
// rest, in left-to-right descent order. With "semilattice" in place of
// "explicit", missing extremes are completed with dummies per §6:
//
//	explicit NAME
//	elements 1 L1 L2 L3 L4 L5 L6
//	cover L6 L5 L4
//	cover L5 L3
//	cover L4 L2 L3
//	cover L3 L1
//	cover L2 L1
//	cover L1 1
func Parse(r io.Reader) (Lattice, error) {
	sc := bufio.NewScanner(r)
	// Lines may be up to 4 MiB; the buffer starts small and grows only
	// for long ones.
	sc.Buffer(nil, 4*1024*1024)
	var kind, name string
	var levels, categories, elements []string
	covers := make(map[string][]string)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		key, args := fields[0], fields[1:]
		switch key {
		case "chain", "mls", "explicit", "semilattice":
			if kind != "" {
				return nil, fmt.Errorf("line %d: lattice kind already declared as %q", lineno, kind)
			}
			if len(args) != 1 {
				return nil, fmt.Errorf("line %d: %s takes exactly one name", lineno, key)
			}
			kind, name = key, args[0]
		case "levels":
			levels = append(levels, args...)
		case "categories":
			categories = append(categories, args...)
		case "elements":
			elements = append(elements, args...)
		case "cover":
			if len(args) < 2 {
				return nil, fmt.Errorf("line %d: cover needs an element and at least one descendant", lineno)
			}
			covers[args[0]] = append(covers[args[0]], args[1:]...)
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", lineno, key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case "":
		return nil, fmt.Errorf("missing lattice declaration (chain/mls/explicit/semilattice)")
	case "chain":
		return NewChain(name, levels...)
	case "mls":
		return NewMLS(name, levels, categories)
	case "explicit":
		return NewExplicit(name, elements, covers)
	case "semilattice":
		l, _, err := CompleteToLattice(name, elements, covers)
		return l, err
	}
	panic("unreachable")
}

// ParseString is Parse over an in-memory description.
func ParseString(s string) (Lattice, error) { return Parse(strings.NewReader(s)) }
