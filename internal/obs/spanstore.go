package obs

import (
	"sync"
	"time"
)

// SpanRecord is one closed wall-clock span: a job's lifecycle stage, a
// background round's per-peer transfer, or a ring forward. It is the
// one wall-span form the service and cluster tiers store, ship between
// nodes at GET /internal/trace/{trace_id}, and render with WallEvents.
// Span is unique within its trace; Parent, when nonzero, is the span
// that caused this one, possibly on another node. Start and End are on
// the recording node's clock — the stitcher aligns clocks, the record
// does not.
type SpanRecord struct {
	Span   int64          `json:"span"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  time.Time      `json:"start"`
	End    time.Time      `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// StoredTrace is the per-trace unit of the span store: every span a
// node recorded under one trace id, typically one background round
// (a replication push, an anti-entropy exchange).
type StoredTrace struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
}

// SpanStore is a bounded per-node store of background-traffic traces,
// keyed by trace id. Job traces are NOT kept here — jobs carry their
// own lifecycle spans and are bounded by the server's job retention —
// so the store only holds cluster housekeeping rounds. When the cap is
// reached the oldest trace is evicted FIFO; observability of ancient
// repair rounds is not worth unbounded memory.
type SpanStore struct {
	mu     sync.Mutex
	cap    int
	traces map[string]*StoredTrace
	order  []string // insertion order, for FIFO eviction
}

// DefaultSpanStoreCap bounds how many distinct background traces a
// node retains. Rounds are minutes apart, so 256 covers hours of
// history at a few KB per trace.
const DefaultSpanStoreCap = 256

// NewSpanStore returns a store bounded to cap traces (<=0 means the
// default cap).
func NewSpanStore(cap int) *SpanStore {
	if cap <= 0 {
		cap = DefaultSpanStoreCap
	}
	return &SpanStore{cap: cap, traces: make(map[string]*StoredTrace)}
}

// Append records spans under traceID, creating the trace if new and
// evicting the oldest trace when the cap is exceeded.
func (s *SpanStore) Append(traceID string, spans ...SpanRecord) {
	if traceID == "" || len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.traces[traceID]
	if !ok {
		for len(s.order) >= s.cap {
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.traces, oldest)
		}
		t = &StoredTrace{TraceID: traceID}
		s.traces[traceID] = t
		s.order = append(s.order, traceID)
	}
	t.Spans = append(t.Spans, spans...)
}

// Get returns a copy of the trace's spans, or ok=false if the trace
// is unknown (never stored, or already evicted).
func (s *SpanStore) Get(traceID string) (StoredTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.traces[traceID]
	if !ok {
		return StoredTrace{}, false
	}
	out := StoredTrace{TraceID: t.TraceID, Spans: make([]SpanRecord, len(t.Spans))}
	copy(out.Spans, t.Spans)
	return out, true
}

// Len reports how many traces the store currently holds.
func (s *SpanStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}
