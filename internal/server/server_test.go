package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// httpSubmit posts req and decodes either the job status or the error.
func httpSubmit(t *testing.T, base string, req SubmitRequest) (JobStatus, *ErrorResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("undecodable error body (HTTP %d): %v", resp.StatusCode, err)
		}
		return JobStatus{}, &e, resp.StatusCode
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, nil, resp.StatusCode
}

// httpPoll fetches the job until it reaches a terminal state.
func httpPoll(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// httpMetrics scrapes /metrics and returns a reader of its unlabeled
// series by registry name: "jobs.completed" reads
// gpmetisd_jobs_completed, and an absent series reads 0.
func httpMetrics(t *testing.T, base string) func(name string) float64 {
	t.Helper()
	samples := scrapeProm(t, base)
	return func(name string) float64 {
		return samples["gpmetisd_"+strings.ReplaceAll(name, ".", "_")]
	}
}

// TestServeEndToEnd is the acceptance scenario: 8 concurrent jobs over
// HTTP against a 2-device pool. Every job must complete with a partition
// identical to a direct Partition call, identical resubmissions must be
// cache hits with zero additional modeled seconds, and the jobs must
// have genuinely shared the pool.
func TestServeEndToEnd(t *testing.T) {
	s := New(Config{Devices: 2, QueueCap: 32, CacheCap: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	type jobCase struct {
		req  SubmitRequest
		g    *gpmetis.Graph
		k    int
		opts gpmetis.Options
	}
	cases := make([]jobCase, n)
	for i := range cases {
		g, err := gpmetis.Delaunay(2500+200*i, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		k := 4 + i%3
		seed := int64(i + 1)
		cases[i] = jobCase{
			req:  SubmitRequest{Graph: graphText(t, g), K: k, Seed: seed},
			g:    g,
			k:    k,
			opts: gpmetis.Options{Seed: seed},
		}
	}

	// Expected results from direct library calls on a fresh machine model.
	expected := make([]*gpmetis.Result, n)
	for i, c := range cases {
		res, err := gpmetis.Partition(c.g, c.k, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = res
	}

	// Submit all jobs concurrently; 8 jobs contend for 2 devices.
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, apiErr, code := httpSubmit(t, ts.URL, cases[i].req)
			if apiErr != nil {
				errs[i] = fmt.Errorf("job %d rejected: HTTP %d %s", i, code, apiErr.Error)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, id := range ids {
		st := httpPoll(t, ts.URL, id)
		if st.State != StateDone {
			t.Fatalf("job %d: state %s, error %q", i, st.State, st.Error)
		}
		if st.Cached {
			t.Errorf("job %d: first submission must not be a cache hit", i)
		}
		if st.Device < 0 || st.Device > 1 {
			t.Errorf("job %d ran on device %d, want 0 or 1", i, st.Device)
		}
		if st.Result == nil {
			t.Fatalf("job %d: done without result", i)
		}
		if st.Result.EdgeCut != expected[i].EdgeCut {
			t.Errorf("job %d: edge cut %d, direct call %d", i, st.Result.EdgeCut, expected[i].EdgeCut)
		}
		if st.Result.ModeledSeconds != expected[i].ModeledSeconds {
			t.Errorf("job %d: modeled %.9f, direct call %.9f — modeled clocks interleaved",
				i, st.Result.ModeledSeconds, expected[i].ModeledSeconds)
		}
		for v, p := range st.Result.Part {
			if p != expected[i].Part[v] {
				t.Fatalf("job %d: partition differs from direct call at vertex %d (%d vs %d)",
					i, v, p, expected[i].Part[v])
			}
		}
	}

	// Both devices must have been exercised by 8 jobs over 2 slots.
	m := httpMetrics(t, ts.URL)
	if m("jobs.completed") != n {
		t.Errorf("jobs.completed = %v, want %d", m("jobs.completed"), n)
	}
	modeledBefore := m("modeled.seconds")
	if modeledBefore <= 0 {
		t.Fatal("modeled.seconds must accumulate over real runs")
	}

	// Identical resubmissions: all cache hits, born done, zero additional
	// modeled seconds charged to the server.
	for i, c := range cases {
		st, apiErr, code := httpSubmit(t, ts.URL, c.req)
		if apiErr != nil {
			t.Fatalf("resubmit %d: HTTP %d %s", i, code, apiErr.Error)
		}
		if code != http.StatusOK || st.State != StateDone || !st.Cached {
			t.Fatalf("resubmit %d: code=%d state=%s cached=%t, want 200/done/true", i, code, st.State, st.Cached)
		}
		if st.Result.EdgeCut != expected[i].EdgeCut {
			t.Errorf("resubmit %d: cached cut %d differs from original %d", i, st.Result.EdgeCut, expected[i].EdgeCut)
		}
	}
	m = httpMetrics(t, ts.URL)
	if m("modeled.seconds") != modeledBefore {
		t.Errorf("cache hits charged modeled time: %.9f -> %.9f", modeledBefore, m("modeled.seconds"))
	}
	if m("cache.hits") != n {
		t.Errorf("cache.hits = %v, want %d", m("cache.hits"), n)
	}

	// The hit job still serves the original run's trace.
	st, _, _ := httpSubmit(t, ts.URL, cases[0].req)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("cache-hit trace endpoint: err=%v events=%d", err, len(trace.TraceEvents))
	}
}

// TestQueueFullRejection fills a 1-device, 2-slot queue while the only
// worker is held inside the test seam, and verifies the typed 429.
func TestQueueFullRejection(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 2, CacheCap: 8})
	defer s.Close()
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) {
		gate.Do(func() { <-release }) // hold the first popped job only
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	req := func(seed int64) SubmitRequest {
		return SubmitRequest{Graph: text, K: 4, Seed: seed, NoCache: true}
	}

	// Job 1 is popped and held by the worker; jobs 2 and 3 fill the queue.
	first, apiErr, _ := httpSubmit(t, ts.URL, req(1))
	if apiErr != nil {
		t.Fatalf("job 1: %s", apiErr.Error)
	}
	waitForDepthDrain(t, s, 0) // worker popped job 1
	for i := int64(2); i <= 3; i++ {
		if _, apiErr, _ := httpSubmit(t, ts.URL, req(i)); apiErr != nil {
			t.Fatalf("job %d should be queued: %s", i, apiErr.Error)
		}
	}

	// The queue is now full: the next submission gets the typed overload.
	st, apiErr, code := httpSubmit(t, ts.URL, req(4))
	if apiErr == nil {
		t.Fatalf("job 4 accepted as %s; want 429", st.ID)
	}
	if code != http.StatusTooManyRequests || apiErr.Code != CodeOverloaded {
		t.Errorf("got HTTP %d code %q, want 429 %q", code, apiErr.Code, CodeOverloaded)
	}

	// The same condition is a typed error on the direct API.
	_, err = s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 5, NoCache: true})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("direct Submit: got %v, want ErrQueueFull", err)
	}

	close(release) // drain
	for _, id := range []string{first.ID} {
		if st := httpPoll(t, ts.URL, id); st.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	m := httpMetrics(t, ts.URL)
	if m("jobs.rejected") != 2 {
		t.Errorf("jobs.rejected = %v, want 2", m("jobs.rejected"))
	}
}

// waitForDepthDrain waits until the queue registry gauge drops to want.
func waitForDepthDrain(t *testing.T, s *Server, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Get("queue.depth") != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue.depth stuck at %v, want %v", s.reg.Get("queue.depth"), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelFreesDeviceSlot cancels a job held at the test seam on a
// single-device pool and verifies the slot is reusable afterwards.
func TestCancelFreesDeviceSlot(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4, CacheCap: 8})
	defer s.Close()
	popped := make(chan *Job, 8)
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(j *Job) {
		popped <- j
		gate.Do(func() { <-release })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	first, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 1, NoCache: true})
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	<-popped // the only worker holds job 1

	// Cancel it over HTTP while it occupies the device slot.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+first.ID, nil)
	if _, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	}
	close(release)
	if st := httpPoll(t, ts.URL, first.ID); st.State != StateCanceled {
		t.Fatalf("canceled job state %s (%s), want canceled", st.State, st.Error)
	}

	// The slot must be free again: a fresh job completes.
	second, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 2, NoCache: true})
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	<-popped
	if st := httpPoll(t, ts.URL, second.ID); st.State != StateDone {
		t.Fatalf("post-cancel job state %s (%s), want done — device slot leaked", st.State, st.Error)
	}
	if m := httpMetrics(t, ts.URL); m("jobs.canceled") != 1 {
		t.Errorf("jobs.canceled = %v, want 1", m("jobs.canceled"))
	}
}

// TestRunningJobCancellation exercises the cooperative mid-run path: the
// core polls Options.Cancel at level boundaries, so a running job whose
// context dies stops with ErrCanceled instead of completing.
func TestRunningJobCancellation(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4, CacheCap: 8})
	defer s.Close()
	started := make(chan *Job, 1)
	s.beforeRun = func(j *Job) { started <- j }

	g, err := gpmetis.Delaunay(60000, 1)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(&SubmitRequest{Graph: graphText(t, g), K: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	j := <-started
	j.Cancel()
	<-job.Done()
	st := job.Status()
	// The run may legitimately finish if it crossed its last boundary
	// before the cancel landed; both outcomes are valid, a hang is not.
	if st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("state %s (%s), want canceled or done", st.State, st.Error)
	}
}

// TestDeadlineWhileQueued verifies that an expired deadline fails a job
// without it ever occupying a device.
func TestDeadlineWhileQueued(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4, CacheCap: 8})
	defer s.Close()
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) { gate.Do(func() { <-release }) }

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	blocker, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForDepthDrain(t, s, 0)
	doomed, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 2, NoCache: true, DeadlineMs: 30})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline fire while queued
	close(release)
	<-doomed.Done()
	if st := doomed.Status(); st.State != StateFailed {
		t.Errorf("deadline-expired job state %s, want failed", st.State)
	}
	<-blocker.Done()
	if st := blocker.Status(); st.State != StateDone {
		t.Errorf("blocker state %s (%s), want done", st.State, st.Error)
	}
}

// TestJobFaultScenario passes a per-job fault scenario through the API
// and checks the degraded outcome surfaces in the job status.
func TestJobFaultScenario(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4, CacheCap: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Delaunay(40000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{
		Graph:   graphText(t, g),
		K:       8,
		Faults:  "gpu.memcap:cap=1M",
		Degrade: true,
	})
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	final := httpPoll(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
	if !final.Result.Degraded || final.Result.DegradedReason == "" {
		t.Errorf("degradation must surface in the job result: %+v", final.Result)
	}
	if m := httpMetrics(t, ts.URL); m("jobs.degraded") != 1 {
		t.Errorf("jobs.degraded = %v, want 1", m("jobs.degraded"))
	}
}

// TestBadRequests maps client mistakes to 400s with code bad_request.
func TestBadRequests(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	for name, req := range map[string]SubmitRequest{
		"no graph":   {K: 2},
		"bad k":      {Graph: text, K: 0},
		"k too big":  {Graph: text, K: 26},
		"bad algo":   {Graph: text, K: 2, Algo: "quantum"},
		"bad merge":  {Graph: text, K: 2, Merge: "zip"},
		"bad ub":     {Graph: text, K: 2, UB: 0.5},
		"bad faults": {Graph: text, K: 2, Faults: "nope:nope"},
		"bad format": {Graph: text, K: 2, Format: "gml"},
		"bad text":   {Graph: "not a graph", K: 2},
	} {
		_, apiErr, code := httpSubmit(t, ts.URL, req)
		if apiErr == nil || code != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Errorf("%s: got code=%d err=%+v, want 400 bad_request", name, code, apiErr)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestHealthz checks the liveness endpoint's occupancy report.
func TestHealthz(t *testing.T) {
	s := New(Config{Devices: 3, QueueCap: 7})
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
	if h.Status != "ok" || h.Devices != 3 || h.QueueCap != 7 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestRingRouteSeesResolvedJob: a ring node resolves each submission
// once. The route hook gets the resolved job with its key and trace id;
// a declined job is admitted as that same job, stamped with the node's
// address. Forwarded, uncacheable and invalid submissions never reach
// the hook, and a draining node still routes before it refuses.
func TestRingRouteSeesResolvedJob(t *testing.T) {
	s := New(Config{Devices: 1, Logger: obs.DiscardLogger()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var mu sync.Mutex
	var routed []*Job
	answer := false
	s.SetRing(RingHooks{NodeID: "3", Addr: "10.0.0.3:8080", Route: func(w http.ResponseWriter, j *Job) bool {
		mu.Lock()
		defer mu.Unlock()
		routed = append(routed, j)
		if answer {
			writeJSON(w, http.StatusOK, JobStatus{State: StateDone, Cached: true, Device: -1, Node: "10.0.0.9:8080"})
		}
		return answer
	}})
	hookCalls := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(routed)
	}

	g, err := gpmetis.Grid2D(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Graph: graphText(t, g), K: 4, Seed: 1}
	st, _, code := httpSubmit(t, ts.URL, req)
	if code != http.StatusAccepted || hookCalls() != 1 {
		t.Fatalf("declined submission: HTTP %d after %d route calls, want 202 after 1", code, hookCalls())
	}
	mu.Lock()
	j := routed[0]
	mu.Unlock()
	keyReq := req
	if key, _ := KeyForRequest(&keyReq); j.Key() != key || j.TraceID() == "" {
		t.Errorf("routed job key %q trace %q, want key %q and a trace id", j.Key(), j.TraceID(), key)
	}
	if admitted, ok := s.Job(st.ID); !ok || admitted != j {
		t.Error("the declined job was not admitted as the job the route saw")
	}
	if st.TraceID != j.TraceID() || st.Node != "10.0.0.3:8080" {
		t.Errorf("answer trace %q node %q, want %q and the node's address", st.TraceID, st.Node, j.TraceID())
	}
	if j.Request().Seed != 1 {
		t.Errorf("routed request seed %d, want 1", j.Request().Seed)
	}

	forwarded, noCache := req, req
	forwarded.Seed, forwarded.ForwardedBy = 2, "10.0.0.1:8080"
	noCache.Seed, noCache.NoCache = 3, true
	for _, r := range []SubmitRequest{forwarded, noCache} {
		if _, e, code := httpSubmit(t, ts.URL, r); e != nil {
			t.Fatalf("HTTP %d %s", code, e.Error)
		}
	}
	if _, e, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: "not a graph", K: 2}); e == nil || e.Code != CodeBadRequest {
		t.Errorf("invalid submission answered %+v, want bad_request", e)
	}
	if n := hookCalls(); n != 1 {
		t.Errorf("forwarded, uncacheable and invalid submissions reached the route %d times, want 0", n-1)
	}

	submitted := httpMetrics(t, ts.URL)("jobs.submitted")
	s.StartDrain()
	mu.Lock()
	answer = true
	mu.Unlock()
	req.Seed = 4
	if st, e, code := httpSubmit(t, ts.URL, req); e != nil || !st.Cached || st.Node != "10.0.0.9:8080" {
		t.Errorf("draining node's routed answer: HTTP %d %+v %+v, want the route's answer", code, st, e)
	}
	if after := httpMetrics(t, ts.URL)("jobs.submitted"); after != submitted {
		t.Errorf("a routed answer admitted a job here: jobs.submitted %v -> %v", submitted, after)
	}
	mu.Lock()
	answer = false
	mu.Unlock()
	if _, e, code := httpSubmit(t, ts.URL, req); code != http.StatusServiceUnavailable || e == nil || e.Code != CodeDraining {
		t.Errorf("draining node declined by the route: HTTP %d %+v, want 503 draining", code, e)
	}
	if n := hookCalls(); n != 3 {
		t.Errorf("route called %d times, want 3", n)
	}
}
