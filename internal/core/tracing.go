package core

import (
	"strconv"

	"minup/internal/constraint"
	"minup/internal/lattice"
	"minup/internal/obs"
)

// renderSpans builds the span tree of one solve under sp (its "solve" or
// "partial-solve" span) from the solve's event log, once the solve is over.
// Solver events report work *after* it happened, so every span starts at
// the previous event's time and ends at its own: consecutive events
// partition the solve's wall time into leaf spans.
//
// The tree mirrors the paper's cost model (Theorem 5.2 is a product of
// per-SCC work and lattice-op cost): one child of sp per priority set
// ("scc <p>", in condensation order — BigLoop visits priority sets in
// strictly descending order and Try propagation never leaves the current
// set, so SCC event runs are contiguous), with the per-step leaves nested
// inside. Each EventTryStep becomes a "descent" span, so the number of
// descent spans in the tree equals Stats.TrySteps. The spans are created in
// event order, so their IDs are those a live reconstruction would mint.
func renderSpans(sp *obs.Span, log *obs.EventLog, c *constraint.Compiled) {
	set, lat := c.Set(), c.Lattice()
	last := sp.StartTime()
	var scc *obs.Span
	var sccID int32
	for _, e := range log.Events() {
		t := log.StartTime().Add(e.At)
		parent := sp
		if e.SCC >= 0 {
			if scc == nil || e.SCC != sccID {
				if scc != nil {
					scc.EndAt(last)
				}
				scc = sp.ChildAt("scc "+strconv.Itoa(int(e.SCC)), last)
				sccID = e.SCC
			}
			parent = scc
		}
		name := e.Kind.String()
		if e.Kind == obs.EventTryStep {
			// The per-minlevel-descent unit: one constraint check inside Try.
			name = "descent"
		}
		leaf := parent.ChildAt(name, last)
		if e.Attr >= 0 {
			leaf.SetAttrStr("attr", set.AttrName(constraint.Attr(e.Attr)))
		}
		leaf.SetAttrStr("level", lat.FormatLevel(lattice.Level(e.Level)))
		leaf.EndAt(t)
		last = t
	}
	if scc != nil {
		scc.EndAt(last)
	}
}

// annotate records the solve's headline stats on its span, with the count
// of events a capped log dropped and the solve's error, if any.
func annotate(sp *obs.Span, st *Stats, log *obs.EventLog, err error) {
	sp.SetAttr("tries", int64(st.Tries))
	sp.SetAttr("failed_tries", int64(st.FailedTries))
	sp.SetAttr("try_steps", int64(st.TrySteps))
	sp.SetAttr("minlevel_calls", int64(st.MinlevelCalls))
	sp.SetAttr("attrs_processed", int64(st.AttrsProcessed))
	sp.SetAttr("collapses", int64(st.Collapses))
	if n := log.Dropped(); n > 0 {
		sp.SetAttr("dropped_events", int64(n))
	}
	if err != nil {
		sp.SetAttrStr("error", err.Error())
	}
}
