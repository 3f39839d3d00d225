package core

import (
	"fmt"
	"strings"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// Trace records the solver's execution step by step, enough to reprint the
// classification-process table of Figure 2(b): one row per action (direct
// assignment, Try call, completion), with the full assignment after the
// action and a failure marker for failed Try calls.
//
// Trace is rendered from the solve's event log: it keeps one clone of the
// initial assignment and the logged events other than try steps, so its
// memory is linear in the number of events instead of the steps×attributes
// quadratic cost of snapshotting the assignment at every step. The full
// per-step assignments of Table(), Final(), and Steps() are reconstructed
// lazily by replaying the events.
type Trace struct {
	set     *constraint.Set
	initial constraint.Assignment // the assignment before step one
	events  []obs.Event
}

// traceKindInitial marks the synthetic first row; it never appears in the
// solver's event stream.
const traceKindInitial = obs.EventKind(0xff)

// newTrace renders the trace of one solve from its log. start is the
// solve's initial assignment (the §6 upper bounds), nil when every
// attribute started at ⊤.
func newTrace(set *constraint.Set, start constraint.Assignment, log *obs.EventLog) *Trace {
	t := &Trace{set: set, initial: start.Clone()}
	if start == nil {
		t.initial = make(constraint.Assignment, set.NumAttrs())
		for i := range t.initial {
			t.initial[i] = set.Lattice().Top()
		}
	}
	n := 0
	for _, e := range log.Events() {
		if e.Kind != obs.EventTryStep {
			n++
		}
	}
	t.events = make([]obs.Event, 0, n)
	for _, e := range log.Events() {
		if e.Kind != obs.EventTryStep {
			t.events = append(t.events, e.Event)
		}
	}
	return t
}

// replay calls fn once per row, in order, with the event that opened the
// row (kind traceKindInitial for the first) and the assignment after it:
// assign/try/try-failed/collapse/done events open a row, and the lower
// events that follow a try are its level changes. after is reused across
// calls.
func (t *Trace) replay(fn func(row obs.Event, after constraint.Assignment)) {
	cur := t.initial.Clone()
	row := obs.Event{Kind: traceKindInitial, Attr: -1}
	for _, e := range t.events {
		if e.Kind != obs.EventLower {
			fn(row, cur)
			row = e
		}
		if e.Kind == obs.EventLower || e.Kind == obs.EventAssign || e.Kind == obs.EventCollapse {
			cur[e.Attr] = lattice.Level(e.Level)
		}
	}
	fn(row, cur)
}

// Step is one materialized solver action, as produced by Steps.
type Step struct {
	// Attr is the attribute being processed (-1 for the initial snapshot).
	Attr constraint.Attr
	// Action describes the step: "initial", "assign", "collapse", "done",
	// or "try(A,l)".
	Action string
	// Failed marks a Try call that returned failure (the paper's "F").
	Failed bool
	// After is the assignment after the step.
	After constraint.Assignment
}

// label renders a row's label in the style of Figure 2(b).
func (t *Trace) label(row obs.Event) string {
	if row.Kind == traceKindInitial {
		return "initial"
	}
	name := t.set.AttrName(constraint.Attr(row.Attr))
	switch row.Kind {
	case obs.EventAssign:
		return name + " assign"
	case obs.EventCollapse:
		return name + " collapse"
	case obs.EventDone:
		return name + " done"
	case obs.EventTry:
		return fmt.Sprintf("try(%s,%s)", name, t.set.Lattice().FormatLevel(lattice.Level(row.Level)))
	case obs.EventTryFailed:
		return fmt.Sprintf("try(%s,%s) F", name, t.set.Lattice().FormatLevel(lattice.Level(row.Level)))
	}
	return "unknown"
}

// Len returns the number of recorded steps, including the initial row.
func (t *Trace) Len() int {
	n := 1
	for _, e := range t.events {
		if e.Kind != obs.EventLower {
			n++
		}
	}
	return n
}

// Steps materializes the trace as one Step per row, each carrying a full
// assignment clone — the eager representation earlier versions stored.
// Cost is steps×attributes; prefer Table()/Tries()/Final() on large runs.
func (t *Trace) Steps() []Step {
	var out []Step
	t.replay(func(row obs.Event, after constraint.Assignment) {
		action := t.label(row)
		failed := row.Kind == obs.EventTryFailed
		if failed {
			action = strings.TrimSuffix(action, " F")
		} else if row.Kind != traceKindInitial && row.Kind != obs.EventTry {
			// Match the historical Action strings: bare verbs for
			// assign/collapse/done, the full "try(A,l)" for tries.
			action = strings.TrimPrefix(action, t.set.AttrName(constraint.Attr(row.Attr))+" ")
		}
		out = append(out, Step{Attr: constraint.Attr(row.Attr), Action: action, Failed: failed, After: after.Clone()})
	})
	return out
}

// Tries returns the Try-call steps in order, formatted as in the paper,
// e.g. "try(B,L5)" and "try(F,L2) F".
func (t *Trace) Tries() []string {
	var out []string
	for _, e := range t.events {
		if e.Kind == obs.EventTry || e.Kind == obs.EventTryFailed {
			out = append(out, t.label(e))
		}
	}
	return out
}

// Table renders the trace as a text table in the style of Figure 2(b):
// one column per attribute (in declaration order), one row per step, the
// level of every attribute after each step, and "F" marking failed tries.
// The per-step assignments are reconstructed by replaying the events.
func (t *Trace) Table() string {
	s := t.set
	lat := s.Lattice()
	attrs := s.Attrs()

	header := make([]string, 0, len(attrs)+1)
	header = append(header, "step")
	for _, a := range attrs {
		header = append(header, s.AttrName(a))
	}
	rows := [][]string{header}
	t.replay(func(step obs.Event, after constraint.Assignment) {
		row := make([]string, 0, len(attrs)+1)
		row = append(row, t.label(step))
		for _, a := range attrs {
			row = append(row, lat.FormatLevel(after[a]))
		}
		rows = append(rows, row)
	})

	// Column widths.
	width := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		var line strings.Builder
		for i, cell := range row {
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", width[i], cell)
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteString("\n")
		if ri == 0 {
			for i, w := range width {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Final returns the assignment after the last step.
func (t *Trace) Final() constraint.Assignment {
	var final constraint.Assignment
	t.replay(func(_ obs.Event, after constraint.Assignment) { final = after })
	return final
}
