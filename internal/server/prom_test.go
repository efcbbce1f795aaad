package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gpmetis"
)

// scrapeProm fetches /metrics, validates the exposition structure line
// by line (legal names, parseable values, no blank lines), and returns
// the samples keyed by full series (name plus label set).
func scrapeProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in /metrics output")
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if typed[f[2]] {
				t.Errorf("duplicate TYPE line for %s", f[2])
			}
			typed[f[2]] = true
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key := line[:sp]
		v, err := strconv.ParseFloat(strings.TrimPrefix(line[sp+1:], "+"), 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			legal := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !legal {
				t.Fatalf("illegal metric name %q", name)
			}
		}
		if _, dup := samples[key]; dup {
			t.Errorf("duplicate series %q", key)
		}
		samples[key] = v
	}
	return samples
}

// checkHistogram asserts the cumulative-bucket invariants of one
// exposed histogram: non-decreasing le buckets, +Inf equal to _count.
func checkHistogram(t *testing.T, samples map[string]float64, name string) {
	t.Helper()
	count, ok := samples[name+"_count"]
	if !ok {
		t.Errorf("histogram %s has no _count", name)
		return
	}
	if _, ok := samples[name+"_sum"]; !ok {
		t.Errorf("histogram %s has no _sum", name)
	}
	var prev float64
	var buckets int
	// Buckets were written in ascending-bound order; values must be
	// non-decreasing in that order, so validate against the max so far.
	for key, v := range samples {
		if !strings.HasPrefix(key, name+"_bucket{") {
			continue
		}
		buckets++
		if strings.Contains(key, `le="+Inf"`) {
			if v != count {
				t.Errorf("%s +Inf bucket = %v, _count = %v", name, v, count)
			}
			continue
		}
		if v > count {
			t.Errorf("%s bucket %s = %v exceeds _count %v", name, key, v, count)
		}
		if v > prev {
			prev = v
		}
	}
	if buckets < 2 {
		t.Errorf("histogram %s exposed %d bucket series", name, buckets)
	}
	if prev > count {
		t.Errorf("%s max finite bucket %v exceeds _count %v", name, prev, count)
	}
}

// TestMetricsPrometheusEndToEnd drives the daemon over HTTP and pins the
// exposition contract: build info on a fresh daemon, latency histograms
// and per-slot gauges after a job, and counter monotonicity across two
// jobs and three scrapes.
func TestMetricsPrometheusEndToEnd(t *testing.T) {
	s := New(Config{Devices: 2, QueueCap: 8, CacheCap: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fresh := scrapeProm(t, ts.URL)
	if v, ok := fresh[`gpmetisd_build_info{version="`+Version+`",go_version="`+runtime.Version()+`"}`]; !ok || v != 1 {
		t.Errorf("build_info series missing or != 1; have %v", fresh)
	}
	for _, want := range []string{
		"gpmetisd_uptime_seconds",
		`gpmetisd_slot_jobs{slot="0"}`,
		`gpmetisd_slot_jobs{slot="1"}`,
		"gpmetisd_cache_hits", "gpmetisd_cache_misses",
	} {
		if _, ok := fresh[want]; !ok {
			t.Errorf("fresh scrape missing %s", want)
		}
	}

	g, err := gpmetis.Delaunay(2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, e, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 4})
	if e != nil {
		t.Fatalf("submit: HTTP %d %+v", code, e)
	}
	st = httpPoll(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	one := scrapeProm(t, ts.URL)
	if one["gpmetisd_jobs_completed"] != 1 {
		t.Errorf("jobs_completed = %v after one job", one["gpmetisd_jobs_completed"])
	}
	for _, h := range []string{"gpmetisd_job_queue_seconds", "gpmetisd_job_run_seconds", "gpmetisd_job_modeled_seconds"} {
		checkHistogram(t, one, h)
		if one[h+"_count"] < 1 {
			t.Errorf("%s_count = %v after one job", h, one[h+"_count"])
		}
	}
	var busy, jobs float64
	for slot := 0; slot < 2; slot++ {
		k := strconv.Itoa(slot)
		busy += one[`gpmetisd_slot_busy_seconds{slot="`+k+`"}`]
		jobs += one[`gpmetisd_slot_jobs{slot="`+k+`"}`]
	}
	if jobs != 1 || busy <= 0 {
		t.Errorf("slot gauges after one job: jobs=%v busy=%v", jobs, busy)
	}

	g2, err := gpmetis.Delaunay(2600, 2)
	if err != nil {
		t.Fatal(err)
	}
	st2, e, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g2), K: 4})
	if e != nil {
		t.Fatalf("submit 2: HTTP %d %+v", code, e)
	}
	if st2 = httpPoll(t, ts.URL, st2.ID); st2.State != StateDone {
		t.Fatalf("job 2 ended %s: %s", st2.State, st2.Error)
	}

	two := scrapeProm(t, ts.URL)
	monotonic := []string{
		"gpmetisd_jobs_completed", "gpmetisd_jobs_submitted",
		"gpmetisd_job_run_seconds_count", "gpmetisd_job_run_seconds_sum",
		"gpmetisd_modeled_seconds",
	}
	for _, name := range monotonic {
		if two[name] < one[name] {
			t.Errorf("%s went backwards across scrapes: %v -> %v", name, one[name], two[name])
		}
	}
	if two["gpmetisd_jobs_completed"] != 2 {
		t.Errorf("jobs_completed = %v after two jobs", two["gpmetisd_jobs_completed"])
	}
}

// TestProfileEndpoint submits with "profile": true and downloads the
// kernel profile; an unprofiled job must 404 with a hint.
func TestProfileEndpoint(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 8, CacheCap: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Big enough to clear the default GPUThreshold (16k vertices), so the
	// run actually launches kernels for the profiler to sample.
	g, err := gpmetis.Delaunay(25000, 3)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	st, e, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Profile: true})
	if e != nil {
		t.Fatalf("submit: HTTP %d %+v", code, e)
	}
	if st = httpPoll(t, ts.URL, st.ID); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile fetch: HTTP %d", resp.StatusCode)
	}
	var rep gpmetis.ProfileReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "gpmetis-profile-v1" || len(rep.Kernels) == 0 {
		t.Fatalf("profile = schema %q, %d kernels", rep.Schema, len(rep.Kernels))
	}
	if rep.KernelSeconds != rep.GPUTimelineSeconds {
		t.Errorf("daemon profile does not reconcile: %v vs %v",
			rep.KernelSeconds, rep.GPUTimelineSeconds)
	}

	// An unprofiled job has no profile to serve. A different K keeps it
	// from coalescing with (or hitting the cache of) the profiled job.
	st2, e, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 8})
	if e != nil {
		t.Fatalf("submit 2: HTTP %d %+v", code, e)
	}
	if st2 = httpPoll(t, ts.URL, st2.ID); st2.State != StateDone {
		t.Fatalf("job 2 ended %s: %s", st2.State, st2.Error)
	}
	resp2, err := http.Get(ts.URL + "/jobs/" + st2.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unprofiled job's profile: HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestProfiledAndPlainJobsCacheSeparately pins the cache-key rule: the
// same graph and options with and without profiling are distinct
// entries, so a plain resubmission can never surface (or miss) a
// profile it did not ask for.
func TestProfiledAndPlainJobsCacheSeparately(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 8, CacheCap: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Delaunay(2500, 5)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	for i, req := range []SubmitRequest{
		{Graph: text, K: 4, Profile: true},
		{Graph: text, K: 4},
	} {
		st, e, code := httpSubmit(t, ts.URL, req)
		if e != nil {
			t.Fatalf("submit %d: HTTP %d %+v", i, code, e)
		}
		if st.Cached {
			t.Errorf("submission %d was a cache hit; profiled and plain must key separately", i)
		}
		if st = httpPoll(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
	}
}

// TestHealthzBuildInfo checks the liveness endpoint exposes the build
// and uptime fields operators alert on.
func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != Version {
		t.Errorf("version = %q, want %q", h.Version, Version)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("go_version = %q", h.GoVersion)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
	if h.ModeledSeconds != 0 {
		t.Errorf("modeled seconds = %v on a fresh daemon", h.ModeledSeconds)
	}
}
