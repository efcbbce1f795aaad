package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// SpanAggregate is the per-name rollup of the flat metrics report.
type SpanAggregate struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// MetricsReport is the machine-readable flat export: registry counters,
// per-span-name time rollups, and the trace/timeline reconciliation pair.
type MetricsReport struct {
	// Counters is the metrics registry snapshot.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Spans aggregates leaf span time by span name.
	Spans []SpanAggregate `json:"spans"`
	// TraceLeafSeconds is the sum of non-auxiliary leaf span durations;
	// it reconciles with the run's modeled seconds by construction.
	TraceLeafSeconds float64 `json:"trace_leaf_seconds"`
	// Extra carries caller-provided run facts (edge cut, modeled
	// seconds, conflict rate, ...).
	Extra map[string]any `json:"extra,omitempty"`
}

// BuildMetricsReport assembles the flat report from a tracer.
func BuildMetricsReport(t *Tracer, extra map[string]any) MetricsReport {
	rep := MetricsReport{
		Counters:         t.Metrics().Snapshot(),
		Spans:            []SpanAggregate{},
		TraceLeafSeconds: t.LeafSeconds(),
		Extra:            extra,
	}
	agg := map[string]*SpanAggregate{}
	for _, sp := range t.Spans() {
		if !sp.IsLeaf() || sp.Aux {
			continue
		}
		a, ok := agg[sp.Name]
		if !ok {
			a = &SpanAggregate{Name: sp.Name}
			agg[sp.Name] = a
		}
		a.Count++
		a.Seconds += sp.Dur()
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.Spans = append(rep.Spans, *agg[n])
	}
	return rep
}

// WriteMetricsJSON writes the flat metrics report as indented JSON.
func WriteMetricsJSON(w io.Writer, t *Tracer, extra map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(BuildMetricsReport(t, extra))
}

// Level-span naming convention shared by the pipeline instrumentation and
// the per-level report.
const (
	// SpanCoarsenLevel names one coarsening level span.
	SpanCoarsenLevel = "coarsen.level"
	// SpanUncoarsenLevel names one uncoarsening (projection+refinement)
	// level span.
	SpanUncoarsenLevel = "uncoarsen.level"
)

func (s *Span) intAttr(key string) (int64, bool) {
	a, ok := s.Attr(key)
	if !ok || a.Kind != KindInt {
		return 0, false
	}
	return a.IntV, true
}

func (s *Span) floatAttr(key string) (float64, bool) {
	a, ok := s.Attr(key)
	if !ok {
		return 0, false
	}
	switch a.Kind {
	case KindFloat:
		return a.FloatV, true
	case KindInt:
		return float64(a.IntV), true
	}
	return 0, false
}

func (s *Span) strAttr(key string) string {
	a, ok := s.Attr(key)
	if !ok || a.Kind != KindStr {
		return ""
	}
	return a.StrV
}

func fmtCount(v int64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func fmtRatio(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

func fmtPct(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.2f", 100*v)
}

// LevelTable renders the human-readable per-level breakdown from the
// trace's coarsen.level / uncoarsen.level spans, in creation order:
// vertex and edge counts, the coarsening ratio, the lock-free matching
// conflict rate, refinement moves, and the level's modeled seconds.
func LevelTable(t *Tracer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %3s %10s %10s %7s %9s %6s %8s %12s\n",
		"PHASE", "SIDE", "LVL", "VERTICES", "EDGES", "RATIO", "CONFLICTS", "RATE%", "MOVES", "SECONDS")
	for _, sp := range t.Spans() {
		var phase string
		switch sp.Name {
		case SpanCoarsenLevel:
			phase = "coarsen"
		case SpanUncoarsenLevel:
			phase = "uncoarsen"
		default:
			continue
		}
		lvl, _ := sp.intAttr("level")
		v, vok := sp.intAttr("vertices")
		e, eok := sp.intAttr("edges")
		ratio, rok := sp.floatAttr("ratio")
		confl, cok := sp.intAttr("conflicts")
		rate, rateok := sp.floatAttr("conflict_rate")
		moves, mok := sp.intAttr("moves")
		fmt.Fprintf(&b, "%-10s %-8s %3d %10s %10s %7s %9s %6s %8s %12.6f\n",
			phase, sp.strAttr("side"), lvl,
			fmtCount(v, vok), fmtCount(e, eok), fmtRatio(ratio, rok),
			fmtCount(confl, cok), fmtPct(rate, rateok), fmtCount(moves, mok),
			sp.Dur())
	}
	return b.String()
}
