package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestLabeledHistogramExposition(t *testing.T) {
	r := &Registry{}
	labels := []Label{{Key: "peer", Value: "1"}, {Key: "rpc", Value: "forward"}}
	r.DeclareHistogramWith("cluster.rpc_seconds", labels, []float64{0.001, 0.01, 0.1})
	r.Describe("cluster.rpc_seconds", "Wall seconds per RPC.")
	// Two in the first bucket, three in the second, one overflow.
	for _, v := range []float64{0.0005, 0.0005, 0.005, 0.005, 0.005, 0.1074} {
		r.ObserveWith("cluster.rpc_seconds", labels, v)
	}
	text := scrape(t, r)

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
	r := &Registry{}
	labels := []Label{{Key: "rpc", Value: "peek"}}
	bounds := []float64{0.5, 1, 2.5, 5}
	r.DeclareHistogramWith("lat.seconds", labels, bounds)
	// Per-bucket counts 4, 0, 7, 2 and 3 overflow: 16 in all.
	for v, n := range map[float64]int{0.1: 4, 2: 7, 4: 2, 10: 3} {
		for i := 0; i < n; i++ {
			r.ObserveWith("lat.seconds", labels, v)
		}
	}
	const count = 16
	text := scrape(t, r)
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
	if buckets != len(bounds)+1 {
		t.Fatalf("rendered %d bucket lines, want %d (bounds + +Inf)", buckets, len(bounds)+1)
	}
	if last != count {
		t.Errorf("+Inf bucket is %d, want the total count %d", last, count)
	}
}

// Label values with quotes, backslashes, and newlines must be escaped
// per the exposition format on bucket, sum, and count lines alike.
func TestLabeledHistogramLabelEscaping(t *testing.T) {
	r := &Registry{}
	labels := []Label{{Key: "peer", Value: "a\"b\\c\nd"}}
	r.DeclareHistogramWith("esc.seconds", labels, []float64{1})
	r.ObserveWith("esc.seconds", labels, 0.5)
	text := scrape(t, r)
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
	r := &Registry{}
	r.Describe("fam.seconds", "Family help.")
	for _, peer := range []string{"0", "1"} {
		labels := []Label{{Key: "peer", Value: peer}}
		r.DeclareHistogramWith("fam.seconds", labels, []float64{1})
		r.ObserveWith("fam.seconds", labels, 1)
	}
	text := scrape(t, r)
	if n := strings.Count(text, "# TYPE test_fam_seconds histogram"); n != 1 {
		t.Errorf("TYPE header rendered %d times, want 1\n%s", n, text)
	}
	if n := strings.Count(text, `peer="1"`); n != 4 {
		t.Errorf("second family member rendered %d lines, want 4 (2 buckets + sum + count)", n)
	}
}
