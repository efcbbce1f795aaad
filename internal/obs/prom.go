package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair. Order is preserved as given.
type Label struct {
	Key, Value string
}

// PromSample is one extra exposition sample — a value the caller derives
// outside the registry (build info, per-slot gauges, cache state) that
// should still appear on the scrape. Samples sharing a Name are grouped
// under one # TYPE line.
type PromSample struct {
	Name   string
	Labels []Label
	Value  float64
	// Help, when non-empty on the first sample of a name, emits a # HELP
	// line for the group.
	Help string
}

// PromHistogram is one extra labeled histogram — a distribution the
// caller maintains outside the registry (per-peer RPC latency, say)
// that should still render in cumulative le-bucket form. Counts holds
// one per-bucket (non-cumulative) count per bound plus a final
// overflow bucket, exactly like HistogramSnapshot. Histograms sharing
// a Name are grouped under one # TYPE line, with Help taken from the
// first of the group; the le label is appended after the caller's
// labels on every bucket line.
type PromHistogram struct {
	Name   string
	Labels []Label
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
	Help   string
}

// WritePrometheus renders the registry — every counter as an untimestamped
// gauge, every histogram in cumulative le-bucket form — plus the extra
// labeled histograms and samples, in the Prometheus text exposition
// format (version 0.0.4). Metric names get the ns prefix ("gpmetisd_")
// and are sanitized to the legal charset; output order is deterministic:
// counters sorted by name, then the registry's histograms sorted by
// name, then hists, then extra, each in the given order.
func WritePrometheus(w io.Writer, r *Registry, ns string, extra []PromSample, hists []PromHistogram) error {
	var b strings.Builder
	for _, name := range r.Names() {
		mn := sanitizeMetricName(ns + name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", mn)
		fmt.Fprintf(&b, "%s %s\n", mn, formatPromValue(r.Get(name)))
	}
	for _, name := range r.HistogramNames() {
		h, ok := r.Histogram(name)
		if !ok {
			continue
		}
		mn := sanitizeMetricName(ns + name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", mn)
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", mn, formatPromValue(bound), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", mn, cum)
		fmt.Fprintf(&b, "%s_sum %s\n", mn, formatPromValue(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", mn, h.Count)
	}
	lastHist := ""
	for _, h := range hists {
		mn := sanitizeMetricName(ns + h.Name)
		if mn != lastHist {
			if h.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", mn, escapeHelp(h.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s histogram\n", mn)
			lastHist = mn
		}
		var cum uint64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", mn, labelPrefix(h.Labels), formatPromValue(bound), cum)
		}
		if len(h.Counts) > len(h.Bounds) {
			cum += h.Counts[len(h.Bounds)]
		}
		fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", mn, labelPrefix(h.Labels), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", mn, labelBlock(h.Labels), formatPromValue(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", mn, labelBlock(h.Labels), h.Count)
	}
	lastName := ""
	for _, s := range extra {
		mn := sanitizeMetricName(ns + s.Name)
		if mn != lastName {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", mn, escapeHelp(s.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s gauge\n", mn)
			lastName = mn
		}
		b.WriteString(mn)
		if len(s.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=\"%s\"", sanitizeLabelName(l.Key), escapeLabelValue(l.Value))
			}
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %s\n", formatPromValue(s.Value))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelPrefix renders "k1=\"v1\",k2=\"v2\"," — caller labels followed by a
// trailing comma, ready to precede the le label inside a bucket's braces.
// Empty labels render as "".
func labelPrefix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&b, "%s=\"%s\",", sanitizeLabelName(l.Key), escapeLabelValue(l.Value))
	}
	return b.String()
}

// labelBlock renders "{k1=\"v1\",k2=\"v2\"}" or "" when there are no labels —
// the label set for _sum and _count lines.
func labelBlock(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", sanitizeLabelName(l.Key), escapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromValue renders a float the way Prometheus clients do: shortest
// round-trip decimal, with the special values spelled +Inf/-Inf/NaN.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeMetricName maps a dotted registry name onto the metric-name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every illegal rune with
// '_' ("queue.wait_seconds" -> "queue_wait_seconds").
func sanitizeMetricName(s string) string {
	return sanitizeName(s, true)
}

// sanitizeLabelName maps onto [a-zA-Z_][a-zA-Z0-9_]* (no colons).
func sanitizeLabelName(s string) string {
	return sanitizeName(s, false)
}

func sanitizeName(s string, colons bool) string {
	if s == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (colons && c == ':') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			if b == nil {
				b = []byte(s)
			}
			b[i] = '_'
		}
	}
	if b != nil {
		return string(b)
	}
	return s
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote, and line feed.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text (backslash and line feed only; quotes are
// legal there).
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
