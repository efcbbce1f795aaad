package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeTempGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.metis")
	if err := os.WriteFile(path, []byte("3 2\n2\n1 3\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSubmitRetriesOn429: the client must honor Retry-After on queue
// overload and re-submit with backoff until the daemon admits the job.
func TestSubmitRetriesOn429(t *testing.T) {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		if posts <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"server: job queue full","code":"overloaded"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":"j000042","state":"done","device":0,"wait_seconds":0,` +
			`"result":{"part":[0,1,0],"edge_cut":2,"imbalance":1.0,"modeled_seconds":0.001}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	retrySleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { retrySleep = time.Sleep }()

	oc, err := runRemote(remoteArgs{
		bases: []string{ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if posts != 3 {
		t.Errorf("posted %d times, want 3 (2 rejections + 1 admit)", posts)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		// Attempt i backs off from the server's 1s Retry-After floor:
		// floor<<i plus up to 50% jitter.
		lo := time.Second << uint(i)
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Errorf("retry %d slept %v, want within [%v, %v]", i, d, lo, hi)
		}
	}
	if oc.JobID != "j000042" || oc.EdgeCut != 2 || len(oc.part) != 3 {
		t.Errorf("outcome = %+v", oc)
	}
}

// TestSubmitGivesUpAfterRetries: a daemon that stays overloaded
// exhausts the budget and surfaces the typed overload error.
func TestSubmitGivesUpAfterRetries(t *testing.T) {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server: job queue full","code":"overloaded"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	retrySleep = func(time.Duration) {}
	defer func() { retrySleep = time.Sleep }()

	_, err := runRemote(remoteArgs{
		bases: []string{ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want the overload error after exhausting retries", err)
	}
	if posts != 2 {
		t.Errorf("posted %d times, want 2 (initial + 1 retry)", posts)
	}
}

// TestSubmitRetryBudgetTrips: with a large -retries, the retry budget
// still cuts the loop after 4 refused attempts in a row — the client
// must not keep hammering an overloaded daemon just because retries
// allow it.
func TestSubmitRetryBudgetTrips(t *testing.T) {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"server: job queue full","code":"overloaded"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	retrySleep = func(time.Duration) {}
	defer func() { retrySleep = time.Sleep }()

	_, err := runRemote(remoteArgs{
		bases: []string{ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want the retry-budget error", err)
	}
	if posts != 4 {
		t.Errorf("posted %d times, want 4 (the retry budget)", posts)
	}
}

// TestSubmitRetriesOn503Draining: a draining daemon's 503 carries a
// Retry-After just like an overload 429; the client must honor it and
// re-submit instead of failing on the first response.
func TestSubmitRetriesOn503Draining(t *testing.T) {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		if posts <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"server: draining, not admitting jobs","code":"draining"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":"j000043","state":"done","device":0,"wait_seconds":0,` +
			`"result":{"part":[0,1,0],"edge_cut":2,"imbalance":1.0,"modeled_seconds":0.001}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	retrySleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { retrySleep = time.Sleep }()

	oc, err := runRemote(remoteArgs{
		bases: []string{ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if posts != 3 {
		t.Errorf("posted %d times, want 3 (2 draining rejections + 1 admit)", posts)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		lo := time.Second << uint(i)
		hi := lo + lo/2
		if d < lo || d > hi {
			t.Errorf("retry %d slept %v, want within [%v, %v] (Retry-After floor)", i, d, lo, hi)
		}
	}
	if oc.JobID != "j000043" {
		t.Errorf("outcome = %+v", oc)
	}
}

// TestSubmit503UnknownCodeIsTerminal: only draining and
// cluster_unreachable 503s are retryable; any other 503 code fails
// fast without sleeping.
func TestSubmit503UnknownCodeIsTerminal(t *testing.T) {
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"maintenance window","code":"maintenance"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	retrySleep = func(time.Duration) { t.Error("slept on a non-retryable 503") }
	defer func() { retrySleep = time.Sleep }()

	_, err := runRemote(remoteArgs{
		bases: []string{ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "maintenance") {
		t.Fatalf("err = %v, want the terminal maintenance rejection", err)
	}
	if posts != 1 {
		t.Errorf("posted %d times, want 1", posts)
	}
}

// TestClusterFailoverToNextBase: with -cluster, a dead first node
// (connection refused) must not fail the run — the client advances to
// the next base and submits there.
func TestClusterFailoverToNextBase(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // now refuses connections

	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		posts++
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":"j000044","state":"done","device":0,"wait_seconds":0,` +
			`"result":{"part":[0,1,0],"edge_cut":2,"imbalance":1.0,"modeled_seconds":0.001}}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	retrySleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { retrySleep = time.Sleep }()

	oc, err := runRemote(remoteArgs{
		bases: []string{deadURL, ts.URL}, path: writeTempGraph(t), k: 2, algo: "gp", retries: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if posts != 1 {
		t.Errorf("live node saw %d posts, want 1", posts)
	}
	if oc.JobID != "j000044" || oc.Server != ts.URL {
		t.Errorf("outcome = %+v, want job j000044 served by %s", oc, ts.URL)
	}
	// The failover must be jittered, not immediate: exactly one sleep,
	// drawn from the decorrelated-jitter window.
	if len(slept) != 1 {
		t.Fatalf("slept %d times on failover, want 1", len(slept))
	}
	if slept[0] < 50*time.Millisecond || slept[0] > 200*time.Millisecond {
		t.Errorf("first failover slept %v, want within [50ms, 200ms]", slept[0])
	}
}

// TestFailoverDelayBounds: decorrelated jitter stays within
// [base, min(cap, 3*prev)] and never collapses to zero — a dead entry
// node must not synchronize thundering resubmits onto its successor.
func TestFailoverDelayBounds(t *testing.T) {
	const base = 50 * time.Millisecond
	const cap = 2 * time.Second
	for i := 0; i < 200; i++ {
		var prev time.Duration
		for hop := 0; hop < 8; hop++ {
			lo, hi := base, 3*prev
			if hi < 3*base {
				hi = 3 * base
			}
			if hi > cap {
				hi = cap
			}
			d := failoverDelay(prev)
			if d < lo || d > hi {
				t.Fatalf("failoverDelay(%v) = %v, want within [%v, %v]", prev, d, lo, hi)
			}
			prev = d
		}
	}
}

// TestClusterAllNodesDown: every base refusing connections surfaces a
// summary error naming the cluster, not a bare dial failure.
func TestClusterAllNodesDown(t *testing.T) {
	a := httptest.NewServer(http.NotFoundHandler())
	b := httptest.NewServer(http.NotFoundHandler())
	aURL, bURL := a.URL, b.URL
	a.Close()
	b.Close()

	_, err := runRemote(remoteArgs{
		bases: []string{aURL, bURL}, path: writeTempGraph(t), k: 2, algo: "gp",
	})
	if err == nil || !strings.Contains(err.Error(), "all 2 cluster nodes unreachable") {
		t.Fatalf("err = %v, want the all-nodes-unreachable summary", err)
	}
}

func TestClusterBasesParsing(t *testing.T) {
	got := clusterBases(" host1:8080, http://host2:9090/ ,,https://host3 ")
	want := []string{"http://host1:8080", "http://host2:9090", "https://host3"}
	if len(got) != len(want) {
		t.Fatalf("clusterBases = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("clusterBases[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRetryDelayBounds(t *testing.T) {
	for attempt := 0; attempt < 8; attempt++ {
		for _, floor := range []time.Duration{0, 2 * time.Second} {
			base := 500 * time.Millisecond
			if floor > 0 {
				base = floor
			}
			exp := attempt
			if exp > 6 {
				exp = 6
			}
			lo := base << uint(exp)
			hi := lo + lo/2
			for i := 0; i < 50; i++ {
				if d := retryDelay(attempt, floor); d < lo || d > hi {
					t.Fatalf("retryDelay(%d, %v) = %v, want within [%v, %v]", attempt, floor, d, lo, hi)
				}
			}
		}
	}
}
