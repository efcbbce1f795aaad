package obs

import (
	"strconv"
	"strings"
	"testing"
)

// scrapeFull renders registry + extras + labeled histograms.
func scrapeFull(t *testing.T, r *Registry, extra []PromSample, hists []PromHistogram) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, r, "test_", extra, hists); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestLabeledHistogramExposition(t *testing.T) {
	h := PromHistogram{
		Name:   "cluster.rpc_seconds",
		Labels: []Label{{Key: "peer", Value: "1"}, {Key: "rpc", Value: "forward"}},
		Bounds: []float64{0.001, 0.01, 0.1},
		Counts: []uint64{2, 3, 0, 1}, // last cell is the overflow bucket
		Sum:    0.1234,
		Count:  6,
		Help:   "Wall seconds per RPC.",
	}
	text := scrapeFull(t, &Registry{}, nil, []PromHistogram{h})

	for _, want := range []string{
		"# HELP test_cluster_rpc_seconds Wall seconds per RPC.",
		"# TYPE test_cluster_rpc_seconds histogram",
		`test_cluster_rpc_seconds_bucket{peer="1",rpc="forward",le="0.001"} 2`,
		`test_cluster_rpc_seconds_bucket{peer="1",rpc="forward",le="0.01"} 5`,
		`test_cluster_rpc_seconds_bucket{peer="1",rpc="forward",le="0.1"} 5`,
		`test_cluster_rpc_seconds_bucket{peer="1",rpc="forward",le="+Inf"} 6`,
		`test_cluster_rpc_seconds_sum{peer="1",rpc="forward"} 0.1234`,
		`test_cluster_rpc_seconds_count{peer="1",rpc="forward"} 6`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q\n%s", want, text)
		}
	}
}

// Bucket counts on the wire must be cumulative and non-decreasing with
// +Inf equal to the total count — the invariant Prometheus clients
// assume when computing quantiles.
func TestLabeledHistogramBucketMonotonicity(t *testing.T) {
	h := PromHistogram{
		Name:   "lat.seconds",
		Labels: []Label{{Key: "rpc", Value: "peek"}},
		Bounds: []float64{0.5, 1, 2.5, 5},
		Counts: []uint64{4, 0, 7, 2, 3},
		Sum:    20,
		Count:  16,
	}
	text := scrapeFull(t, &Registry{}, nil, []PromHistogram{h})
	prev := int64(-1)
	var last int64
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "test_lat_seconds_bucket{") {
			continue
		}
		buckets++
		v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket counts decrease: %d after %d in %q", v, prev, line)
		}
		prev, last = v, v
	}
	if buckets != len(h.Bounds)+1 {
		t.Fatalf("rendered %d bucket lines, want %d (bounds + +Inf)", buckets, len(h.Bounds)+1)
	}
	if last != int64(h.Count) {
		t.Errorf("+Inf bucket is %d, want the total count %d", last, h.Count)
	}
}

// Label values with quotes, backslashes, and newlines must be escaped
// per the exposition format on bucket, sum, and count lines alike.
func TestLabeledHistogramLabelEscaping(t *testing.T) {
	h := PromHistogram{
		Name:   "esc.seconds",
		Labels: []Label{{Key: "peer", Value: "a\"b\\c\nd"}},
		Bounds: []float64{1},
		Counts: []uint64{1, 0},
		Sum:    0.5,
		Count:  1,
	}
	text := scrapeFull(t, &Registry{}, nil, []PromHistogram{h})
	escaped := `peer="a\"b\\c\nd"`
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		found := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "test_esc_seconds"+suffix) && strings.Contains(line, escaped) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s line lacks the escaped label %s\n%s", suffix, escaped, text)
		}
	}
	if strings.Contains(text, "a\"b") {
		t.Error("raw unescaped quote leaked into the exposition")
	}
}

// Two histograms sharing a name must emit HELP/TYPE once, like labeled
// series of one metric family.
func TestLabeledHistogramFamilyHeaderOnce(t *testing.T) {
	mk := func(peer string) PromHistogram {
		return PromHistogram{
			Name:   "fam.seconds",
			Labels: []Label{{Key: "peer", Value: peer}},
			Bounds: []float64{1},
			Counts: []uint64{1, 0},
			Sum:    1,
			Count:  1,
			Help:   "Family help.",
		}
	}
	text := scrapeFull(t, &Registry{}, nil, []PromHistogram{mk("0"), mk("1")})
	if n := strings.Count(text, "# TYPE test_fam_seconds histogram"); n != 1 {
		t.Errorf("TYPE header rendered %d times, want 1\n%s", n, text)
	}
	if n := strings.Count(text, `peer="1"`); n != 4 {
		t.Errorf("second family member rendered %d lines, want 4 (2 buckets + sum + count)", n)
	}
}
