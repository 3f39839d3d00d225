package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer mints spans. The zero value is usable and fully deterministic:
// span IDs are sequential starting at 1 and the trace ID is derived from
// the same sequence, which is what golden tests want. NewTracer seeds the
// trace ID with entropy so concurrent production traces do not collide.
//
// Now, when non-nil, replaces time.Now for every span start and end the
// tracer records; tests inject a fake clock here to make exported
// timestamps reproducible.
type Tracer struct {
	// Now supplies timestamps; nil means time.Now.
	Now func() time.Time

	traceID uint64
	ids     atomic.Uint64
}

// NewTracer returns a tracer whose trace ID is random. Span IDs are still
// sequential per tracer: uniqueness across traces comes from the trace ID.
func NewTracer() *Tracer {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy failure leaves the deterministic fallback, which is
		// still a valid (if collision-prone) trace ID.
		return &Tracer{}
	}
	return &Tracer{traceID: binary.LittleEndian.Uint64(b[:])}
}

func (t *Tracer) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// TraceID returns the tracer's trace identifier in hex.
func (t *Tracer) TraceID() string {
	id := t.traceID
	if id == 0 {
		id = 1 // deterministic zero-value tracer
	}
	return fmt.Sprintf("%016x", id)
}

// Start begins a root span.
func (t *Tracer) Start(name string) *Span {
	return t.StartAt(name, t.now())
}

// StartAt begins a root span with an explicit start time.
func (t *Tracer) StartAt(name string, start time.Time) *Span {
	return &Span{
		tracer: t,
		id:     t.ids.Add(1),
		name:   name,
		start:  start,
	}
}

// Span is one timed region of work. Spans form a tree: children are created
// with Child/ChildAt and are owned by their parent. Creating children and
// setting attributes are safe for concurrent use; End is not (end a span
// from the goroutine that owns it).
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64 // 0 for roots
	name   string
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []SpanAttr
	children []*Span
}

// SpanAttr is one key/value annotation on a span. Values are kept as
// strings so export needs no reflection.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ID returns the span's identifier, unique within its tracer.
func (s *Span) ID() uint64 { return s.id }

// ParentID returns the parent span's ID, or 0 for a root span.
func (s *Span) ParentID() uint64 { return s.parent }

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// StartTime returns when the span began.
func (s *Span) StartTime() time.Time { return s.start }

// EndTime returns when the span ended; the zero time if still open.
func (s *Span) EndTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns end-start, or 0 while the span is open.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Tracer returns the tracer that created the span.
func (s *Span) Tracer() *Tracer { return s.tracer }

// Child begins a sub-span starting now.
func (s *Span) Child(name string) *Span {
	return s.ChildAt(name, s.tracer.now())
}

// ChildAt begins a sub-span with an explicit start time. Event-driven
// instrumentation uses this to open spans retroactively: solver events
// arrive after the work they describe, so the caller passes the previous
// event's timestamp as the start.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	c := &Span{
		tracer: s.tracer,
		id:     s.tracer.ids.Add(1),
		parent: s.id,
		name:   name,
		start:  start,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span now. Ending an already-ended span is a no-op.
func (s *Span) End() { s.EndAt(s.tracer.now()) }

// EndAt closes the span at an explicit time. Ending an already-ended span
// is a no-op.
func (s *Span) EndAt(t time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = t
	}
	s.mu.Unlock()
}

// SetAttr records an integer annotation.
func (s *Span) SetAttr(key string, v int64) {
	s.SetAttrStr(key, fmt.Sprintf("%d", v))
}

// SetAttrStr records a string annotation.
func (s *Span) SetAttrStr(key, value string) {
	s.mu.Lock()
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
	s.mu.Unlock()
}

// Attrs returns a copy of the span's annotations.
func (s *Span) Attrs() []SpanAttr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SpanAttr(nil), s.attrs...)
}

// Children returns a copy of the span's direct children in creation order.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits the span and every descendant depth-first in creation order.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children() {
		c.Walk(fn)
	}
}

// SpanNode is the JSON tree shape of a finished span, used by the minupd
// /policies/{name}/trace endpoint and anywhere a serializable copy of the
// tree is needed.
type SpanNode struct {
	ID         uint64     `json:"id"`
	ParentID   uint64     `json:"parent_id,omitempty"`
	Name       string     `json:"name"`
	StartUS    int64      `json:"start_us"`
	DurationUS int64      `json:"duration_us"`
	Attrs      []SpanAttr `json:"attrs,omitempty"`
	Children   []SpanNode `json:"children,omitempty"`
}

// Node converts the span tree to its JSON shape. Timestamps are microseconds
// relative to epoch; epoch is typically the root span's start so exported
// trees begin at 0.
func (s *Span) Node(epoch time.Time) SpanNode {
	s.mu.Lock()
	n := SpanNode{
		ID:       s.id,
		ParentID: s.parent,
		Name:     s.name,
		StartUS:  s.start.Sub(epoch).Microseconds(),
		Attrs:    append([]SpanAttr(nil), s.attrs...),
	}
	if !s.end.IsZero() {
		n.DurationUS = s.end.Sub(s.start).Microseconds()
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Node(epoch))
	}
	return n
}

// spanKey is the context key for the active span.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the active span, or nil when the context is
// uninstrumented. Callers must nil-check: the nil return is the zero-cost
// path.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}
