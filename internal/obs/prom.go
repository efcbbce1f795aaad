package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): every counter and labeled gauge as an
// untimestamped gauge, every histogram in cumulative le-bucket form, and
// a # HELP line for each name the registry describes. Metric names get
// the ns prefix ("gpmetisd_") and are sanitized to the legal charset.
// Output order is deterministic: names sorted, and the series of a
// labeled name sorted by label set.
func WritePrometheus(w io.Writer, r *Registry, ns string) error {
	var b strings.Builder
	if r != nil {
		r.mu.Lock()
		r.render(&b, ns)
		r.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// render writes the exposition; the caller holds r.mu.
func (r *Registry) render(b *strings.Builder, ns string) {
	names := make([]string, 0, len(r.counters)+len(r.histograms)+len(r.families))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.histograms {
		names = append(names, k)
	}
	for k := range r.families {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		mn := sanitizeMetricName(ns + name)
		header := func(typ string) {
			if help := r.help[name]; help != "" {
				fmt.Fprintf(b, "# HELP %s %s\n", mn, helpEscaper.Replace(help))
			}
			fmt.Fprintf(b, "# TYPE %s %s\n", mn, typ)
		}
		if v, ok := r.counters[name]; ok {
			header("gauge")
			fmt.Fprintf(b, "%s %s\n", mn, formatPromValue(v))
		}
		if h, ok := r.histograms[name]; ok {
			header("histogram")
			writeHistogram(b, mn, "", h)
		}
		f, ok := r.families[name]
		if !ok {
			continue
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.hist {
			header("histogram")
			for _, k := range keys {
				writeHistogram(b, mn, k, f.series[k].h)
			}
			continue
		}
		header("gauge")
		for _, k := range keys {
			fmt.Fprintf(b, "%s%s %s\n", mn, k, formatPromValue(f.series[k].value))
		}
	}
}

// writeHistogram renders one histogram under the label set key (a
// rendered `{...}` or ""): cumulative buckets with le appended after the
// series' own labels, then _sum and _count.
func writeHistogram(b *strings.Builder, mn, key string, h *histogram) {
	open := "{"
	if key != "" {
		open = key[:len(key)-1] + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", mn, open, formatPromValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", mn, open, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", mn, key, formatPromValue(h.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", mn, key, h.count)
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

// labelValueEscaper applies the exposition-format label escapes:
// backslash, double quote, and line feed. helpEscaper escapes HELP text
// (backslash and line feed only; quotes are legal there).
var (
	labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper       = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)
