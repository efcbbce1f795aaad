package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// syncBuffer is an io.Writer safe for the server's concurrent log calls.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// traceDoc mirrors the Chrome trace_event wire shape for assertions.
type traceDoc struct {
	TraceEvents []traceEv `json:"traceEvents"`
}

type traceEv struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func fetchTrace(t *testing.T, base, id string) traceDoc {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace: HTTP %d: %s", resp.StatusCode, body)
	}
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc
}

// TestTraceOfRunningJob polls GET /jobs/{id}/trace while the job runs:
// the handler renders the modeled spans that the run is still ending, so
// under the race detector this checks that the read is synchronized.
// mt-metis holds each coarsening level's span open across the level's
// host work, so most fetches read a span the run ends afterwards.
func TestTraceOfRunningJob(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 4, Logger: obs.DiscardLogger()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Delaunay(30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 16, Algo: "mt", NoCache: true})
	if apiErr != nil {
		t.Fatalf("submit: %s", apiErr.Error)
	}
	job, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s unknown", st.ID)
	}
	running := func() bool {
		select {
		case <-job.Done():
			return false
		default:
			return true
		}
	}
	midRun := 0
	for deadline := time.Now().Add(60 * time.Second); running(); {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", st.ID)
		}
		modeled := false
		for _, ev := range fetchTrace(t, ts.URL, st.ID).TraceEvents {
			modeled = modeled || ev.Pid == 2
		}
		if modeled && running() {
			midRun++
		}
	}
	if midRun == 0 {
		t.Fatal("no trace fetch saw modeled spans while the job ran")
	}
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
}

// TestMergedTraceEndToEnd is the tentpole acceptance test: one completed
// job must serve a single valid Chrome trace containing both wall-clock
// service lifecycle spans and the modeled-clock kernel spans, with the
// modeled roots parented under the service run span.
func TestMergedTraceEndToEnd(t *testing.T) {
	s := New(Config{
		Devices:     1,
		QueueCap:    8,
		Logger:      obs.DiscardLogger(),
		JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 4})
	if apiErr != nil {
		t.Fatalf("submit: %s", apiErr.Error)
	}
	if st.TraceID == "" {
		t.Error("submitted job carries no trace_id")
	}
	st = httpPoll(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	doc := fetchTrace(t, ts.URL, st.ID)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Both process rows must be labeled.
	procs := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid], _ = ev.Args["name"].(string)
		}
	}
	if procs[1] != "service (wall clock)" || procs[2] != "partition (modeled clock)" {
		t.Fatalf("process rows = %v, want service + partition", procs)
	}

	// The service row must tile the lifecycle.
	service := map[string]traceEv{}
	for _, ev := range doc.TraceEvents {
		if ev.Pid == 1 && ev.Ph == "X" {
			service[ev.Name] = ev
		}
	}
	for _, name := range []string{"admit", "cache-lookup", "queue-wait", "schedule", "run"} {
		if _, ok := service[name]; !ok {
			t.Errorf("service row missing lifecycle span %q (have %v)", name, service)
		}
	}
	run, ok := service["run"]
	if !ok {
		t.Fatal("no run span; cannot check parenting")
	}
	if run.Dur <= 0 {
		t.Errorf("run span duration = %v, want > 0", run.Dur)
	}
	runID, _ := run.Args["span"].(float64)
	if runID == 0 {
		t.Fatal("run span has no span id arg")
	}
	if got, _ := run.Args["job_id"].(string); got != st.ID {
		t.Errorf("run span job_id = %q, want %q", got, st.ID)
	}

	// The modeled row: root spans carry cat "run", the service_parent
	// pointer to the lifecycle run span, and the job correlation IDs;
	// their timestamps sit inside the run span's wall window.
	var roots, details int
	for _, ev := range doc.TraceEvents {
		if ev.Pid != 2 || ev.Ph != "X" {
			continue
		}
		if ev.Cat == "detail" {
			details++
			continue
		}
		if ev.Cat != "run" {
			continue
		}
		roots++
		if parent, _ := ev.Args["service_parent"].(float64); parent != runID {
			t.Errorf("modeled root %q service_parent = %v, want %v", ev.Name, ev.Args["service_parent"], runID)
		}
		if got, _ := ev.Args["job_id"].(string); got != st.ID {
			t.Errorf("modeled root job_id = %q, want %q", got, st.ID)
		}
		if got, _ := ev.Args["trace_id"].(string); got != st.TraceID {
			t.Errorf("modeled root trace_id = %q, want %q", got, st.TraceID)
		}
		if ev.Ts < run.Ts-0.5 {
			t.Errorf("modeled root starts at %vus, before the run span at %vus", ev.Ts, run.Ts)
		}
	}
	if roots == 0 {
		t.Error("no modeled-clock root spans in the merged trace")
	}
	if details == 0 {
		t.Error("no modeled-clock kernel detail spans in the merged trace")
	}

	// A queued/terminal job keeps a trace before any run too: resubmit as
	// a cache hit and expect service spans plus the original run's
	// modeled spans parented under cache-lookup.
	hit, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 4})
	if apiErr != nil || !hit.Cached {
		t.Fatalf("resubmit: err=%v cached=%v", apiErr, hit.Cached)
	}
	hitDoc := fetchTrace(t, ts.URL, hit.ID)
	var hitLookupID float64
	for _, ev := range hitDoc.TraceEvents {
		if ev.Pid == 1 && ev.Ph == "X" && ev.Name == "cache-lookup" {
			hitLookupID, _ = ev.Args["span"].(float64)
		}
	}
	if hitLookupID == 0 {
		t.Fatal("cache-hit trace has no cache-lookup span")
	}
	for _, ev := range hitDoc.TraceEvents {
		if ev.Pid == 2 && ev.Cat == "run" {
			if parent, _ := ev.Args["service_parent"].(float64); parent != hitLookupID {
				t.Errorf("cache-hit modeled root parented to %v, want cache-lookup %v", parent, hitLookupID)
			}
		}
	}
}

// TestLogLinesCarryJobID captures the structured JSON log and asserts
// that every job-scoped line the daemon emits for a job carries its
// job_id and trace_id.
func TestLogLinesCarryJobID(t *testing.T) {
	var logBuf syncBuffer
	s := New(Config{
		Devices:     1,
		QueueCap:    8,
		Logger:      obs.NewLogger(&logBuf, obs.LogJSON, slog.LevelDebug),
		JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 2})
	if apiErr != nil {
		t.Fatalf("submit: %s", apiErr.Error)
	}
	st = httpPoll(t, ts.URL, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	// The terminal log line lands from the watch goroutine shortly after
	// the poll sees the job done.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logBuf.String(), "job done") {
		if time.Now().After(deadline) {
			t.Fatalf("no 'job done' log line; log:\n%s", logBuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	jobLines := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		msg, _ := rec["msg"].(string)
		if !strings.HasPrefix(msg, "job ") {
			continue // server-scoped lines (replay summary etc.)
		}
		jobLines++
		if got, _ := rec["job_id"].(string); got != st.ID {
			t.Errorf("line %q job_id = %q, want %q", msg, got, st.ID)
		}
		if got, _ := rec["trace_id"].(string); got != st.TraceID {
			t.Errorf("line %q trace_id = %q, want %q", msg, got, st.TraceID)
		}
	}
	// At minimum: admitted, scheduled, done.
	if jobLines < 3 {
		t.Errorf("only %d job-scoped log lines; want admitted+scheduled+done:\n%s", jobLines, logBuf.String())
	}
}

// TestDrainRejectsAndFinishes checks graceful shutdown: draining rejects
// new submissions with 503 code "draining" while in-flight jobs run to
// completion and are counted drained.
func TestDrainRejectsAndFinishes(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 8, Logger: obs.DiscardLogger()})
	defer s.Close()
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) {
		gate.Do(func() { <-release }) // hold the first popped job
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	first, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 2, Seed: 1, NoCache: true})
	if apiErr != nil {
		t.Fatalf("job 1: %s", apiErr.Error)
	}
	waitForDepthDrain(t, s, 0) // worker popped job 1 and is held
	second, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 2, Seed: 2, NoCache: true})
	if apiErr != nil {
		t.Fatalf("job 2: %s", apiErr.Error)
	}

	s.StartDrain()

	// New submissions: typed 503.
	_, apiErr, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 2, Seed: 3})
	if apiErr == nil || code != http.StatusServiceUnavailable || apiErr.Code != CodeDraining {
		t.Fatalf("submit while draining = HTTP %d %+v, want 503 code draining", code, apiErr)
	}

	// Health reports the drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", health.Status)
	}

	// Release the held worker; both live jobs must drain cleanly.
	close(release)
	drained, aborted := s.Drain(30 * time.Second)
	if drained != 2 || aborted != 0 {
		t.Errorf("Drain = %d drained, %d aborted; want 2, 0", drained, aborted)
	}
	if st := httpPoll(t, ts.URL, first.ID); st.State != StateDone {
		t.Errorf("job 1 after drain: %s", st.State)
	}
	if st := httpPoll(t, ts.URL, second.ID); st.State != StateDone {
		t.Errorf("job 2 after drain: %s", st.State)
	}

	// The flight recorder kept the drain lifecycle.
	var evs EventsResponse
	resp, err = http.Get(ts.URL + "/admin/events")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var sawBegin, sawEnd bool
	for _, e := range evs.Events {
		switch e.Type {
		case obs.EvDrainBegin:
			sawBegin = true
		case obs.EvDrainEnd:
			sawEnd = true
		}
	}
	if !sawBegin || !sawEnd {
		t.Errorf("flight recorder missing drain events: begin=%t end=%t", sawBegin, sawEnd)
	}
}

// TestOpsEndpoints exercises /admin/status.json, /admin/events,
// and the healthz/metrics observability additions after real traffic.
func TestOpsEndpoints(t *testing.T) {
	s := New(Config{Devices: 2, QueueCap: 8, Logger: obs.DiscardLogger()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 2, Seed: seed, NoCache: true})
		if apiErr != nil {
			t.Fatalf("submit: %s", apiErr.Error)
		}
		if st = httpPoll(t, ts.URL, st.ID); st.State != StateDone {
			t.Fatalf("job finished %s", st.State)
		}
	}

	// A job turns done before its watcher observes its total latency and
	// records its done event, so wait until the watcher has seen all three.
	var status StatusResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		status = StatusResponse{}
		getJSON(t, ts.URL+"/admin/status.json", &status)
		if status.TotalSeconds.Count >= 3 || time.Now().After(deadline) {
			break
		}
	}

	// /admin/status.json: the ops view data.
	getJSON(t, ts.URL+"/admin/status.json", &status)
	if status.Status != "ok" || status.JobsCompleted != 3 || len(status.Slots) != 2 {
		t.Errorf("status = %q completed=%d slots=%d; want ok/3/2",
			status.Status, status.JobsCompleted, len(status.Slots))
	}
	if status.TotalSeconds.Count != 3 || status.TotalSeconds.P99 <= 0 {
		t.Errorf("total-latency summary = %+v, want count 3 and positive p99", status.TotalSeconds)
	}

	// /admin/events: every job left admit and done events with IDs.
	var evs EventsResponse
	getJSON(t, ts.URL+"/admin/events", &evs)
	admits := 0
	for _, e := range evs.Events {
		if e.Type == obs.EvAdmit {
			admits++
			if e.Job == "" || e.Trace == "" {
				t.Errorf("admit event without correlation IDs: %+v", e)
			}
		}
	}
	if admits != 3 {
		t.Errorf("flight recorder holds %d admit events, want 3", admits)
	}

	// /healthz: the event staleness signal.
	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.EventsTotal == 0 || health.LastEvent == "" {
		t.Errorf("healthz observability fields = %+v", health)
	}

	// /metrics: the lifecycle histogram is exposed.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"gpmetisd_job_total_seconds_bucket"} {
		if !bytes.Contains(prom, []byte(series)) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}
