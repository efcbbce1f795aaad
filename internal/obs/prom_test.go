package obs

import (
	"slices"
	"strings"
	"testing"
)

func TestHistogramObserve(t *testing.T) {
	r := &Registry{}
	r.DeclareHistogram("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		r.Observe("lat", v)
	}
	h, ok := r.Histogram("lat")
	if !ok {
		t.Fatal("declared histogram missing")
	}
	wantCounts := []uint64{1, 2, 1, 1} // (..0.1], (0.1..1], (1..10], (10..+Inf)
	if len(h.Counts) != len(wantCounts) {
		t.Fatalf("got %d count slots, want %d", len(h.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("bucket %d count = %d, want %d", i, h.Counts[i], want)
		}
	}
	if h.Count != 5 || h.Sum != 56.05 {
		t.Errorf("count=%d sum=%v, want 5 / 56.05", h.Count, h.Sum)
	}
	// Upper bounds are inclusive (le semantics): 1.0 landed in (0.1, 1].
	r2 := &Registry{}
	r2.DeclareHistogram("edge", []float64{1})
	r2.Observe("edge", 1)
	h2, _ := r2.Histogram("edge")
	if h2.Counts[0] != 1 || h2.Counts[1] != 0 {
		t.Errorf("le-semantics violated: counts = %v", h2.Counts)
	}
}

func TestHistogramUndeclaredUsesDefBuckets(t *testing.T) {
	r := &Registry{}
	r.Observe("auto", 0.25)
	h, ok := r.Histogram("auto")
	if !ok {
		t.Fatal("implicit histogram missing")
	}
	if len(h.Bounds) != len(DefBuckets) {
		t.Errorf("got %d bounds, want DefBuckets (%d)", len(h.Bounds), len(DefBuckets))
	}
	if h.Count != 1 {
		t.Errorf("count = %d", h.Count)
	}
	if names := r.HistogramNames(); len(names) != 1 || names[0] != "auto" {
		t.Errorf("HistogramNames() = %v", names)
	}
}

func TestNilRegistryHistogramsSafe(t *testing.T) {
	var r *Registry
	r.DeclareHistogram("x", nil)
	r.Observe("x", 1)
	if _, ok := r.Histogram("x"); ok {
		t.Error("nil registry claims a histogram")
	}
	if r.HistogramNames() != nil {
		t.Error("nil registry returns histogram names")
	}
}

// scrape renders the registry and returns the exposition text.
func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, r, "test_"); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// promLines parses exposition text into comment and sample lines,
// failing the test on anything structurally invalid: a sample line must
// be `name{labels} value` or `name value`, with a legal metric name.
func promLines(t *testing.T, text string) (samples map[string]string) {
	t.Helper()
	samples = map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition:\n%s", text)
		}
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = key[:i]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			legal := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !legal {
				t.Fatalf("illegal metric name %q in line %q", name, line)
			}
		}
		samples[key] = val
	}
	return samples
}

func TestWritePrometheusCountersAndNames(t *testing.T) {
	r := &Registry{}
	r.Add("jobs.completed", 3)
	r.Add("queue.depth", 1)
	out := scrape(t, r)
	samples := promLines(t, out)
	if samples["test_jobs_completed"] != "3" {
		t.Errorf("jobs.completed sample = %q in:\n%s", samples["test_jobs_completed"], out)
	}
	if !strings.Contains(out, "# TYPE test_jobs_completed gauge") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
	if strings.Contains(out, "jobs.completed") {
		t.Errorf("unsanitized dotted name leaked:\n%s", out)
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := &Registry{}
	r.DeclareHistogram("job.run_seconds", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 2} {
		r.Observe("job.run_seconds", v)
	}
	out := scrape(t, r)
	samples := promLines(t, out)
	// Cumulative le buckets, monotonically non-decreasing, +Inf == count.
	checks := map[string]string{
		`test_job_run_seconds_bucket{le="0.1"}`:  "1",
		`test_job_run_seconds_bucket{le="1"}`:    "2",
		`test_job_run_seconds_bucket{le="+Inf"}`: "3",
		"test_job_run_seconds_count":             "3",
		"test_job_run_seconds_sum":               "2.55",
	}
	for key, want := range checks {
		if samples[key] != want {
			t.Errorf("%s = %q, want %q in:\n%s", key, samples[key], want, out)
		}
	}
	if !strings.Contains(out, "# TYPE test_job_run_seconds histogram") {
		t.Errorf("missing histogram TYPE:\n%s", out)
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := &Registry{}
	r.SetWith("build_info", []Label{{"version", "a\\b\"c\nd"}, {"go version", "go1.x"}}, 1)
	r.Describe("build_info", "Build metadata\nsecond line")
	out := scrape(t, r)
	if !strings.Contains(out, `version="a\\b\"c\nd"`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, `go_version="go1.x"`) {
		t.Errorf("label name not sanitized:\n%s", out)
	}
	if !strings.Contains(out, `# HELP test_build_info Build metadata\nsecond line`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if strings.Count(out, "\n") != strings.Count(strings.ReplaceAll(out, "\\n", ""), "\n") {
		t.Errorf("raw newline leaked into a value:\n%q", out)
	}
}

func TestWritePrometheusGroupsExtras(t *testing.T) {
	r := &Registry{}
	r.SetWith("slot_busy", []Label{{"slot", "0"}}, 1.5)
	r.SetWith("slot_busy", []Label{{"slot", "1"}}, 0)
	r.SetWith("slot_jobs", []Label{{"slot", "0"}}, 2)
	out := scrape(t, r)
	if got := strings.Count(out, "# TYPE test_slot_busy gauge"); got != 1 {
		t.Errorf("slot_busy TYPE emitted %d times, want 1:\n%s", got, out)
	}
	samples := promLines(t, out)
	if samples[`test_slot_busy{slot="0"}`] != "1.5" || samples[`test_slot_busy{slot="1"}`] != "0" {
		t.Errorf("per-slot samples wrong:\n%s", out)
	}
}

// TestLabeledSeriesRegistry: labeled gauges accumulate and read back per
// label set, label order is part of a series' identity, Names and
// HistogramNames list labeled names by kind, an observation on a gauge
// name is ignored, and Delete drops one series (the name with its last).
func TestLabeledSeriesRegistry(t *testing.T) {
	r := &Registry{}
	a := []Label{{"tenant", "a"}}
	r.AddWith("tenant.submitted", a, 2)
	r.AddWith("tenant.submitted", a, 1)
	r.SetWith("tenant.submitted", []Label{{"tenant", "b"}}, 7)
	if got := r.GetWith("tenant.submitted", a); got != 3 {
		t.Errorf("tenant a = %v, want 3", got)
	}
	r.SetWith("pair", []Label{{"x", "1"}, {"y", "2"}}, 1)
	if got := r.GetWith("pair", []Label{{"y", "2"}, {"x", "1"}}); got != 0 {
		t.Errorf("reordered labels read %v, want a different (absent) series", got)
	}
	r.ObserveWith("tenant.submitted", a, 5) // a gauge name: ignored
	r.DeclareHistogramWith("rpc.seconds", []Label{{"peer", "1"}}, []float64{1})
	r.Add("plain", 1)
	if got := r.Names(); !slices.Equal(got, []string{"pair", "plain", "tenant.submitted"}) {
		t.Errorf("Names() = %v", got)
	}
	if got := r.HistogramNames(); !slices.Equal(got, []string{"rpc.seconds"}) {
		t.Errorf("HistogramNames() = %v", got)
	}
	r.Delete("tenant.submitted", a)
	if out := scrape(t, r); strings.Contains(out, `tenant="a"`) || !strings.Contains(out, `test_tenant_submitted{tenant="b"} 7`) {
		t.Errorf("Delete dropped the wrong series:\n%s", out)
	}
	r.Delete("pair", []Label{{"x", "1"}, {"y", "2"}})
	if slices.Contains(r.Names(), "pair") {
		t.Error("deleting a name's last series must drop the name")
	}
	var nilReg *Registry
	nilReg.AddWith("x", a, 1)
	if nilReg.GetWith("x", a) != 0 {
		t.Error("nil registry holds a labeled series")
	}
}
