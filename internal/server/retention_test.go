package server

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// waitAppends waits until the journal has taken n appends in all.
func waitAppends(t *testing.T, s *Server, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.reg.Snapshot()["journal.appends"] < n {
		if time.Now().After(deadline) {
			t.Fatalf("journal.appends = %v, want %v", s.reg.Snapshot()["journal.appends"], n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFinishedJobsKeepOnlyTheirAnswer: after n computed jobs and n cache
// hits of them, no indexed job holds its parsed graph or its graph
// text, and the rotation image carries no graph text: per job it is a
// few hundred bytes beside the partition vector, far below the input.
func TestFinishedJobsKeepOnlyTheirAnswer(t *testing.T) {
	const n = 4
	g, err := gpmetis.Grid2D(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	s := New(Config{
		Devices: 1, JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
		JournalRotateEvery: 1 << 20, Logger: obs.DiscardLogger(),
	})
	defer s.Close()
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			job, err := s.Submit(&SubmitRequest{Graph: text, K: 2 + i, Algo: "metis"})
			if err != nil {
				t.Fatal(err)
			}
			<-job.Done()
			if hit := job.Status().Cached; hit != (round == 1) {
				t.Fatalf("round %d job %d: cached = %v", round, i, hit)
			}
		}
	}
	// Each computed job takes submit, running and outcome appends; each
	// hit takes one append for its submit and outcome.
	waitAppends(t, s, 4*n)

	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	if len(jobs) != 2*n {
		t.Fatalf("index holds %d jobs, want %d", len(jobs), 2*n)
	}
	for _, j := range jobs {
		j.mu.Lock()
		holdsGraph, holdsText := j.g != nil, j.req != nil && j.req.Graph != ""
		j.mu.Unlock()
		if holdsGraph || holdsText {
			t.Errorf("finished job %s holds its parsed graph (%v) or its graph text (%v)", j.ID, holdsGraph, holdsText)
		}
	}

	image := s.compactRecords()
	var size int
	for _, rec := range image {
		if rec.Type == RecSubmit && (rec.Req == nil || rec.Req.Graph != "") {
			t.Errorf("rotation image: submit record of %s carries graph text", rec.ID)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		size += len(line) + 1
	}
	part, _ := json.Marshal(make([]int, g.NumVertices()))
	if perJob := size / (2 * n); perJob > len(part)+1024 {
		t.Errorf("rotation image holds %d bytes per job, want <= %d (the partition vector + 1 KiB); the graph text is %d bytes",
			perJob, len(part)+1024, len(text))
	}
}

// TestIndexForgetsPastLiveJob: a live job at the head of the job index
// does not stop eviction. With MaxJobs 4, a job held before its run and
// 100 cache hits behind it leave four jobs indexed: the held job, still
// first, and the three newest hits.
func TestIndexForgetsPastLiveJob(t *testing.T) {
	g, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	s := New(Config{Devices: 1, MaxJobs: 4, Logger: obs.DiscardLogger()})
	defer s.Close()
	first, err := s.Submit(&SubmitRequest{Graph: text, K: 2, Algo: "metis"})
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()

	popped, release := make(chan struct{}), make(chan struct{})
	s.beforeRun = func(*Job) { close(popped); <-release }
	held, err := s.Submit(&SubmitRequest{Graph: text, K: 3, Algo: "metis", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	<-popped
	var hits []string
	for i := 0; i < 100; i++ {
		j, err := s.Submit(&SubmitRequest{Graph: text, K: 2, Algo: "metis"})
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().Cached {
			t.Fatalf("resubmission %d was not a cache hit", i)
		}
		hits = append(hits, j.ID)
	}

	s.mu.Lock()
	order := append([]string(nil), s.order...)
	indexed := len(s.jobs)
	s.mu.Unlock()
	want := append([]string{held.ID}, hits[len(hits)-3:]...)
	if indexed != 4 || strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("index holds %d jobs in order %v, want 4 in order %v", indexed, order, want)
	}
	close(release)
	if st := waitTerminal(t, held); st.State != StateDone {
		t.Errorf("held job ended %s (%s), want done", st.State, st.Error)
	}
}

// waitTerminal waits for j to finish and returns its status.
func waitTerminal(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never finished", j.ID)
	}
	return j.Status()
}

// TestCacheHitSurvivesRestart: a cache hit is born done and holds no
// graph text, so its submit record cannot be rerun. It is journaled
// with its outcome in one append, no second record follows, and after a
// restart the hit comes back done with its answer. A graphless submit
// with no outcome — only a torn append can leave one — replays as a
// failed job.
func TestCacheHitSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	g, err := gpmetis.Grid2D(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Graph: graphText(t, g), K: 4, Algo: "metis"}
	s := New(Config{Devices: 1, JournalPath: path, Logger: obs.DiscardLogger()})
	first, err := s.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	waitAppends(t, s, 3) // submit, running, done
	again := req
	hit, err := s.Submit(&again)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().Cached {
		t.Fatal("resubmission was not a cache hit")
	}
	want := hit.Status().Result
	s.Close()
	if got := s.reg.Snapshot()["journal.appends"]; got != 4 {
		t.Errorf("journal.appends = %v, want 4: three for the run, one for the hit's submit and outcome", got)
	}

	recs, dropped, err := ReplayJournal(path)
	if err != nil || dropped != 0 {
		t.Fatalf("replay: dropped=%d err=%v", dropped, err)
	}
	var types []string
	for _, rec := range recs {
		if rec.ID == hit.ID {
			types = append(types, rec.Type)
			if rec.Type == RecSubmit && rec.Req.Graph != "" {
				t.Error("the hit's submit record carries graph text")
			}
		}
	}
	if strings.Join(types, ",") != "submit,done" {
		t.Errorf("hit %s journaled as %v, want [submit done]", hit.ID, types)
	}

	// The torn-append case: a graphless submit with nothing after it.
	appendRecords(t, path, Record{Type: RecSubmit, ID: "j000099", Seq: 99, Req: &SubmitRequest{K: 4}})

	s2 := New(Config{Devices: 1, JournalPath: path, Logger: obs.DiscardLogger()})
	defer s2.Close()
	j, ok := s2.Job(hit.ID)
	if !ok {
		t.Fatalf("hit %s not recovered", hit.ID)
	}
	st := j.Status()
	if st.State != StateDone || st.Result == nil || st.Result.EdgeCut != want.EdgeCut ||
		len(st.Result.Part) != len(want.Part) {
		t.Errorf("recovered hit: state %s result %+v, want done with edge cut %d", st.State, st.Result, want.EdgeCut)
	}
	torn, ok := s2.Job("j000099")
	if !ok {
		t.Fatal("graphless submit not recovered")
	}
	if st := torn.Status(); st.State != StateFailed || !strings.Contains(st.Error, "missing graph text") {
		t.Errorf("graphless submit replayed as %s (%q), want failed: missing graph text", st.State, st.Error)
	}
}
