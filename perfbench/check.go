package main

import (
	"fmt"
	"strings"

	"minup/internal/constraint"
	"minup/internal/core"
	"minup/internal/lattice"
)

// endCheck is the outcome of comparing a served end state with the plan's
// catalog model and an in-process replay's end state.
type endCheck struct {
	Policies int `json:"policies"`
	// AssignEqual counts served assignments identical to the replay's;
	// AssignMinimal counts the others, each a different but verified
	// minimal solution (minimal solutions need not be unique, and which
	// one a version gets depends on whether it was repaired from its
	// predecessor or solved cold, which depends on timing).
	AssignEqual   int      `json:"assign_equal"`
	AssignMinimal int      `json:"assign_other_minimal"`
	Failed        int      `json:"failed"`
	Errors        []string `json:"errors,omitempty"`
}

func (e *endCheck) fail(format string, args ...any) {
	e.Failed++
	if len(e.Errors) < 5 {
		e.Errors = append(e.Errors, fmt.Sprintf(format, args...))
	}
}

// checkEnd compares the served end state with the model's final policies
// (names, versions, source texts) and with the replay's end state
// (versions, texts, assignments); every served assignment must pass
// core.Verify and, where it differs from the replay's, a minimality probe.
// On the cluster every node's fingerprint must equal the replay's.
func checkEnd(p *Plan, served endState, ref *replayResult, prints []string) endCheck {
	var e endCheck
	if len(served) != len(p.Final) {
		e.fail("service holds %d policies, model %d", len(served), len(p.Final))
	}
	if len(ref.state) != len(p.Final) {
		e.fail("replay holds %d policies, model %d", len(ref.state), len(p.Final))
	}
	for _, want := range p.Final {
		e.Policies++
		got, ok := served[want.Name]
		rp, rok := ref.state[want.Name]
		switch {
		case !ok:
			e.fail("%s: not served", want.Name)
			continue
		case !rok:
			e.fail("%s: missing from the replay", want.Name)
			continue
		case got.Version != want.Version || rp.info.Version != want.Version:
			e.fail("%s: version served %d, replay %d, model %d", want.Name, got.Version, rp.info.Version, want.Version)
			continue
		case got.Lattice != want.Lattice || got.Texts != joinTexts(want.Texts) ||
			rp.info.Lattice != want.Lattice || rp.info.ConstraintText != got.Texts:
			e.fail("%s: source texts differ from the model", want.Name)
			continue
		}
		set, m, err := served2assignment(want, got.Assignment)
		if err != nil {
			e.fail("%s: %v", want.Name, err)
			continue
		}
		if err := core.Verify(set, m); err != nil {
			e.fail("%s: served assignment violates the policy: %v", want.Name, err)
			continue
		}
		if equalAssign(got.Assignment, rp.assignment) {
			e.AssignEqual++
			continue
		}
		minimal, _, err := core.ProbeMinimality(set, m)
		if err != nil || !minimal {
			e.fail("%s: served assignment differs from the replay's and is not minimal (err %v)", want.Name, err)
			continue
		}
		e.AssignMinimal++
	}
	for i, fp := range prints {
		if fp != ref.fingerprint {
			e.fail("node %d fingerprint %s, replay %s", i, fp, ref.fingerprint)
		}
	}
	return e
}

// served2assignment parses the model policy and maps a served assignment
// onto its attributes.
func served2assignment(pol Policy, served map[string]string) (*constraint.Set, constraint.Assignment, error) {
	lat, err := lattice.Parse(strings.NewReader(pol.Lattice))
	if err != nil {
		return nil, nil, err
	}
	set := constraint.NewSet(lat)
	if err := set.ParseString(joinTexts(pol.Texts)); err != nil {
		return nil, nil, err
	}
	if len(served) != set.NumAttrs() {
		return nil, nil, fmt.Errorf("served %d attributes, policy has %d", len(served), set.NumAttrs())
	}
	m := make(constraint.Assignment, set.NumAttrs())
	for _, a := range set.Attrs() {
		name := set.AttrName(a)
		lv, ok := served[name]
		if !ok {
			return nil, nil, fmt.Errorf("attribute %s not served", name)
		}
		if m[a], err = lat.ParseLevel(lv); err != nil {
			return nil, nil, err
		}
	}
	return set, m, nil
}

func equalAssign(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
