package obs

import (
	"strings"
	"testing"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 32 {
			t.Fatalf("trace id %q has length %d, want 32 hex chars (128 bits)", id, len(id))
		}
		if strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("trace id %q is not lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("trace id %q repeated within 1000 draws", id)
		}
		seen[id] = true
	}
}

func TestSpanStoreBoundsAndEviction(t *testing.T) {
	s := NewSpanStore(3)
	for i, id := range []string{"a", "b", "c", "d"} {
		s.Append(id, SpanRecord{Span: int64(i), Name: "x"})
	}
	if s.Len() != 3 {
		t.Fatalf("store holds %d traces, want cap 3", s.Len())
	}
	if _, ok := s.Get("a"); ok {
		t.Error("oldest trace survived past the cap (want FIFO eviction)")
	}
	if st, ok := s.Get("d"); !ok || len(st.Spans) != 1 {
		t.Error("newest trace missing after eviction")
	}
	// Appending to a live trace grows it without consuming a slot.
	s.Append("d", SpanRecord{Span: 9, Name: "y"})
	if st, _ := s.Get("d"); len(st.Spans) != 2 {
		t.Error("append to an existing trace did not accumulate")
	}
	if s.Len() != 3 {
		t.Errorf("append to an existing trace changed the trace count to %d", s.Len())
	}
}
