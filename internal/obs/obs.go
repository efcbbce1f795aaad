// Package obs is the observability substrate of the repository: a
// span-based tracer plus a metrics registry that every pipeline stage can
// report into.
//
// Spans nest (run → coarsening level N → match/cmap/contract kernels →
// handoff → initial partition → uncoarsening level N → projection /
// refinement pass P) and carry typed attributes (vertex and edge counts,
// coarsening ratios, match conflicts, boundary sizes, moves, bytes moved,
// simulated device counters). The clock is *modeled* time: span
// timestamps are the modeled seconds of the shared perfmodel.Timeline, so
// a trace reconciles exactly with the runtimes the paper's tables report.
//
// Everything is nil-safe: a nil *Tracer (tracing disabled) produces nil
// spans, and every method on a nil receiver is a no-op that allocates
// nothing, so instrumented hot paths pay one pointer check.
package obs

import (
	"fmt"
	"sync"
)

// Kind discriminates the typed value held by an Attr.
type Kind int

// Attribute kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindStr
	KindBool
)

// Attr is one typed key-value attribute on a span.
type Attr struct {
	Key    string
	Kind   Kind
	IntV   int64
	FloatV float64
	StrV   string
	BoolV  bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, IntV: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: KindFloat, FloatV: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindStr, StrV: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Kind: KindBool, BoolV: v} }

// Value returns the attribute's value as an interface, for exporters.
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.IntV
	case KindFloat:
		return a.FloatV
	case KindStr:
		return a.StrV
	case KindBool:
		return a.BoolV
	default:
		return nil
	}
}

// String formats the attribute as key=value.
func (a Attr) String() string { return fmt.Sprintf("%s=%v", a.Key, a.Value()) }

// Span is one timed, attributed region of a run. Timestamps are modeled
// seconds. Spans are created through Tracer.Root or Span.Child and closed
// with EndAt; all methods are safe on a nil receiver and safe for
// concurrent use (the owning tracer's lock serializes them).
type Span struct {
	t      *Tracer
	parent *Span

	// ID is the span's unique identifier within its tracer (> 0).
	ID int64
	// ParentID is the parent span's ID, or 0 for a root span.
	ParentID int64
	// Name identifies the region (kernel name, pipeline stage, ...).
	Name string
	// Track is the modeled execution lane the span belongs to ("host",
	// "gpu0", ...); it becomes the thread row in a Chrome trace.
	Track string
	// Start and End are modeled seconds; Dur = End - Start.
	Start, End float64
	// Aux marks auxiliary detail spans (for example per-device kernel
	// activity in the multi-GPU pipeline, where the master timeline
	// already charges the per-phase maxima). Aux spans appear in exports
	// but are excluded from reconciliation sums. Children inherit it.
	Aux bool

	attrs    []Attr
	children int
	ended    bool
}

// Tracer collects spans and owns the run's metrics registry. The zero
// value is not used directly; construct with New. A nil *Tracer is the
// disabled tracer: every operation on it (and on the nil spans it hands
// out) is an allocation-free no-op.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	spans  []*Span
	reg    Registry
}

// New returns an enabled Tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Metrics returns the tracer's registry (nil when tracing is disabled;
// the nil registry swallows updates).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return &t.reg
}

// Root opens a top-level span on the given track at modeled time start.
func (t *Tracer) Root(name, track string, start float64, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newSpanLocked(nil, name, track, start, attrs)
}

func (t *Tracer) newSpanLocked(parent *Span, name, track string, start float64, attrs []Attr) *Span {
	t.nextID++
	s := &Span{
		t:     t,
		ID:    t.nextID,
		Name:  name,
		Track: track,
		Start: start,
		End:   start,
		attrs: append([]Attr(nil), attrs...),
	}
	if parent != nil {
		s.parent = parent
		s.ParentID = parent.ID
		s.Aux = parent.Aux
		if s.Track == "" {
			s.Track = parent.Track
		}
		parent.children++
	}
	t.spans = append(t.spans, s)
	return s
}

// Child opens a sub-span at modeled time start, inheriting the parent's
// track and Aux flag.
func (s *Span) Child(name string, start float64, attrs ...Attr) *Span {
	return s.ChildTrack("", name, start, attrs...)
}

// ChildTrack opens a sub-span on an explicit track (for per-device lanes).
func (s *Span) ChildTrack(track, name string, start float64, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.newSpanLocked(s, name, track, start, attrs)
}

// Parent returns the span's parent (nil for roots and nil spans).
func (s *Span) Parent() *Span {
	if s == nil {
		return nil
	}
	return s.parent
}

// EndAt closes the span at modeled time end. Closing an already-closed
// span moves its end time (the last close wins).
func (s *Span) EndAt(end float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if end > s.Start {
		s.End = end
	}
	s.ended = true
}

// Set appends attributes to the span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.attrs = append(s.attrs, attrs...)
}

// MarkAux flags the span (and, through inheritance, its future children)
// as auxiliary detail excluded from reconciliation sums.
func (s *Span) MarkAux() *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.Aux = true
	return s
}

// Dur returns the span's modeled duration in seconds.
func (s *Span) Dur() float64 {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the last attribute with the given key and whether one
// exists (last wins, matching Set's append semantics).
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := len(s.attrs) - 1; i >= 0; i-- {
		if s.attrs[i].Key == key {
			return s.attrs[i], true
		}
	}
	return Attr{}, false
}

// IsLeaf reports whether the span has no child spans.
func (s *Span) IsLeaf() bool {
	if s == nil {
		return false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.children == 0
}

// Spans returns a snapshot of all spans in creation order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// spanCopies returns a copy of every span in creation order, each taken
// under the tracer's lock, so a caller can read Start, End, Aux and the
// attributes while the run is still ending and marking the originals.
func (t *Tracer) spanCopies() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, sp := range t.spans {
		out[i] = *sp
		out[i].attrs = append([]Attr(nil), sp.attrs...)
	}
	return out
}

// LeafSeconds sums the durations of all non-auxiliary leaf spans. When
// every modeled phase is mirrored by exactly one leaf span — which the
// TimelineSink integration guarantees — this equals the run's total
// modeled seconds, making the trace reconcile with the timeline.
func (t *Tracer) LeafSeconds() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, sp := range t.spans {
		if sp.children == 0 && !sp.Aux {
			s += sp.End - sp.Start
		}
	}
	return s
}
