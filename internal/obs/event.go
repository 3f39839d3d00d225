package obs

import (
	"sync"
	"time"
)

// EventKind classifies one solver step.
type EventKind uint8

const (
	// EventAssign reports an attribute labeled directly by back-propagation
	// (the lub of its definitively labeled constraints).
	EventAssign EventKind = iota
	// EventTry reports a successful Try call: the attribute was lowered to
	// the event's level. The individual lowerings the call propagated
	// through the cycle follow as EventLower events.
	EventTry
	// EventTryFailed reports a Try call rejected because a constraint with
	// a definitively labeled right-hand side would break (the paper's "F"
	// marker). No assignment change follows.
	EventTryFailed
	// EventLower reports one attribute lowered as part of the immediately
	// preceding EventTry's propagation (including the tried attribute
	// itself).
	EventLower
	// EventCollapse reports an attribute pinned by the §3.2 simple-cycle
	// collapse.
	EventCollapse
	// EventDone reports an attribute's forward lowering completed (its
	// level is final).
	EventDone
	// EventTryStep reports one constraint check inside a Try call's
	// minlevel descent — the finest-grained unit of solver work, matching
	// Stats.TrySteps. Logged only when the solve has an event log, like
	// every other kind.
	EventTryStep

	numEventKinds = int(EventTryStep) + 1
)

// String returns the kind's canonical short name, as the span tree and the
// flight dump name the event.
func (k EventKind) String() string {
	switch k {
	case EventAssign:
		return "assign"
	case EventTry:
		return "try"
	case EventTryFailed:
		return "try_failed"
	case EventLower:
		return "lower"
	case EventCollapse:
		return "collapse"
	case EventDone:
		return "done"
	case EventTryStep:
		return "try_step"
	}
	return "unknown"
}

// Event is one solver step, stored by value in an EventLog so that logging
// it allocates nothing once the log's buffer has grown. Fields are plain
// integers: Attr is the dense attribute index of the solve's constraint
// set, Level is the opaque lattice level handle after the step, and SCC is
// the §4 priority (one per strongly connected component) of the attribute,
// or -1 when no attribute is involved.
type Event struct {
	Kind  EventKind
	Attr  int32
	Level uint64
	SCC   int32
}

// LoggedEvent is one event of an EventLog. At is its offset from the log's
// start, or zero when the log was not started against a clock.
type LoggedEvent struct {
	Event
	At time.Duration
}

// EventLog holds one solve's event stream: it is the solver's only event
// destination, and the Figure 2(b) trace, the solve span tree and the
// flight recorder's dump lane are rendered from it after the solve. The
// zero value is an unbounded log that stamps no times; Start makes it
// stamp each event with its offset from a start time. A flight's log
// (ActiveFlight.Events) is capped at 4096 events and counts the rest as
// dropped. A log is filled by one solve at a time and is not safe for
// concurrent use.
type EventLog struct {
	events  []LoggedEvent
	dropped int
	start   time.Time        // zero: events are not stamped
	now     func() time.Time // nil: time.Since(start)
	// bufs is set on a flight's log: its buffer, of flightEvents events,
	// comes from the recorder's pool on the first event, so a request
	// whose solve logs nothing takes none.
	bufs *sync.Pool
}

// Start empties the log and stamps each event that follows with its
// offset from start, read from now (nil means time.Now). A zero start
// stamps nothing.
func (l *EventLog) Start(start time.Time, now func() time.Time) {
	l.Reset()
	l.start, l.now = start, now
}

// Reset empties the log for the next solve, keeping its buffer, its cap
// and its clock.
func (l *EventLog) Reset() {
	l.events = l.events[:0]
	l.dropped = 0
}

// Append logs one event. A full capped log counts it as dropped instead.
func (l *EventLog) Append(e Event) {
	if len(l.events) == cap(l.events) && l.bufs != nil {
		if l.events != nil {
			l.dropped++
			return
		}
		l.events = l.bufs.Get().(*flightBuf)[:0]
	}
	var at time.Duration
	if !l.start.IsZero() {
		if l.now != nil {
			at = l.now().Sub(l.start)
		} else {
			at = time.Since(l.start)
		}
	}
	l.events = append(l.events, LoggedEvent{Event: e, At: at})
}

// Events returns the logged events in solver order, valid until the log
// is next reset.
func (l *EventLog) Events() []LoggedEvent { return l.events }

// Dropped returns how many events a capped log could not keep.
func (l *EventLog) Dropped() int { return l.dropped }

// StartTime returns the time the event offsets count from; zero when the
// log does not stamp events.
func (l *EventLog) StartTime() time.Time { return l.start }

// Stamped reports whether the log was started against a clock.
func (l *EventLog) Stamped() bool { return !l.start.IsZero() }
