package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpmetis"
)

// appendRecords writes raw journal records, simulating what a previous
// process would have left behind before dying.
func appendRecords(t *testing.T, path string, recs ...Record) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalReplayCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	appendRecords(t, path,
		Record{Type: RecSubmit, ID: "j000001", Seq: 1, Req: &SubmitRequest{Graph: "x", K: 2}},
		Record{Type: RecRunning, ID: "j000001"},
	)
	// A crash mid-append leaves a torn final line; everything after the
	// first unparsable byte must be dropped, not fatal.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"done","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, dropped, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if recs[0].Type != RecSubmit || recs[1].Type != RecRunning {
		t.Errorf("records = %+v", recs)
	}

	// A missing journal replays as empty.
	recs, dropped, err = ReplayJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil || dropped != 0 {
		t.Errorf("missing journal: recs=%v dropped=%d err=%v", recs, dropped, err)
	}
}

// TestRestartRecovery is the crash-recovery acceptance scenario at the
// package level: a journal (and checkpoint directory) left behind by a
// dead process must bring back completed results, re-admit interrupted
// jobs, resume from a valid checkpoint bit-identically, and survive
// corrupt or mismatched checkpoints by rerunning from scratch.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}

	g1, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gpmetis.Delaunay(20000, 2)
	if err != nil {
		t.Fatal(err)
	}
	g1Text, g2Text := graphText(t, g1), graphText(t, g2)
	req1 := SubmitRequest{Graph: g1Text, K: 4}

	// Expected results for the interrupted jobs, from direct library runs.
	expect := func(seed int64) *gpmetis.Result {
		res, err := gpmetis.Partition(g2, 6, gpmetis.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exp97, exp98, exp99 := expect(2), expect(3), expect(1)

	// Process 1: complete one job so its result lands in the journal.
	s1 := New(Config{Devices: 1, QueueCap: 8, JournalPath: journalPath, CheckpointDir: ckptDir})
	ts1 := httptest.NewServer(s1.Handler())
	st, apiErr, _ := httpSubmit(t, ts1.URL, req1)
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	first := httpPoll(t, ts1.URL, st.ID)
	if first.State != StateDone {
		t.Fatalf("job 1 state %s (%s)", first.State, first.Error)
	}
	ts1.Close()
	s1.Close()

	// Simulate three jobs the dead process had accepted but not finished:
	//   j000097 running, with a checkpoint from the WRONG graph (mismatch);
	//   j000098 running, with a corrupt checkpoint file;
	//   j000099 running, with a valid mid-run checkpoint.
	appendRecords(t, journalPath,
		Record{Type: RecSubmit, ID: "j000097", Seq: 97, Req: &SubmitRequest{Graph: g2Text, K: 6, Seed: 2}},
		Record{Type: RecRunning, ID: "j000097"},
		Record{Type: RecSubmit, ID: "j000098", Seq: 98, Req: &SubmitRequest{Graph: g2Text, K: 6, Seed: 3}},
		Record{Type: RecRunning, ID: "j000098"},
		Record{Type: RecSubmit, ID: "j000099", Seq: 99, Req: &SubmitRequest{Graph: g2Text, K: 6, Seed: 1}},
		Record{Type: RecRunning, ID: "j000099"},
	)
	writeSnapshot := func(path string, g *gpmetis.Graph, seed int64, at int) {
		n := 0
		_, err := gpmetis.Partition(g, 6, gpmetis.Options{
			Seed: seed,
			Checkpoint: func(c *gpmetis.Checkpoint) error {
				n++
				if n == at {
					return gpmetis.WriteCheckpointFile(path, c)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if n < at {
			t.Fatalf("run produced %d snapshots, need %d", n, at)
		}
	}
	// The small graph takes the pure-CPU path and snapshots once; the
	// large one snapshots at every level boundary.
	writeSnapshot(filepath.Join(ckptDir, "j000097.ckpt"), g1, 2, 1) // wrong graph
	if err := os.WriteFile(filepath.Join(ckptDir, "j000098.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeSnapshot(filepath.Join(ckptDir, "j000099.ckpt"), g2, 1, 2)

	// Process 2: recovery must replay all of the above.
	s2 := New(Config{Devices: 2, QueueCap: 16, JournalPath: journalPath, CheckpointDir: ckptDir})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The finished job is queryable and its result repopulated the cache:
	// an identical submit is a hit, not a recomputation.
	resp, err := http.Get(ts2.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recovered done job: HTTP %d", resp.StatusCode)
	}
	hit, apiErr, code := httpSubmit(t, ts2.URL, req1)
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	if code != http.StatusOK || !hit.Cached {
		t.Errorf("identical submit after restart: code=%d cached=%v, want cache hit", code, hit.Cached)
	}
	if hit.Result == nil || hit.Result.EdgeCut != first.Result.EdgeCut {
		t.Errorf("recovered cache served a different result")
	}

	check := func(id string, exp *gpmetis.Result, wantResumed bool) {
		t.Helper()
		final := httpPoll(t, ts2.URL, id)
		if final.State != StateDone {
			t.Fatalf("%s state %s (%s)", id, final.State, final.Error)
		}
		if final.Resumed != wantResumed {
			t.Errorf("%s resumed = %v, want %v", id, final.Resumed, wantResumed)
		}
		if final.Result.EdgeCut != exp.EdgeCut || final.Result.ModeledSeconds != exp.ModeledSeconds {
			t.Errorf("%s result (cut %d, %.9g s) differs from direct run (cut %d, %.9g s)",
				id, final.Result.EdgeCut, final.Result.ModeledSeconds, exp.EdgeCut, exp.ModeledSeconds)
		}
		for i, p := range exp.Part {
			if final.Result.Part[i] != p {
				t.Fatalf("%s part[%d] = %d, want %d", id, i, final.Result.Part[i], p)
			}
		}
	}
	check("j000099", exp99, true) // resumed bit-identically from its snapshot
	check("j000098", exp98, false)
	check("j000097", exp97, false) // mismatched snapshot dropped, rerun

	m := httpMetrics(t, ts2.URL)
	if m("jobs.readmitted") != 3 {
		t.Errorf("jobs.readmitted = %v, want 3", m("jobs.readmitted"))
	}
	if m("jobs.resumed") != 2 {
		// j000097's snapshot parses (it is a valid file for the wrong
		// graph), so it counts as resumed until the run rejects it.
		t.Errorf("jobs.resumed = %v, want 2", m("jobs.resumed"))
	}
	if m("checkpoint.rejected") != 1 {
		t.Errorf("checkpoint.rejected = %v, want 1", m("checkpoint.rejected"))
	}
	if m("jobs.recovered_results") != 1 {
		t.Errorf("jobs.recovered_results = %v, want 1", m("jobs.recovered_results"))
	}
	// Terminal checkpoints must not linger.
	for _, id := range []string{"j000097", "j000098", "j000099"} {
		if _, err := os.Stat(filepath.Join(ckptDir, id+".ckpt")); !os.IsNotExist(err) {
			t.Errorf("%s.ckpt survived its job's completion", id)
		}
	}
}

// TestJournalRotation: the journal compacts after the configured number
// of appends and keeps replaying correctly afterwards.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	s := New(Config{Devices: 1, QueueCap: 16, JournalPath: journalPath, JournalRotateEvery: 3})
	for i := 0; i < 4; i++ {
		job, err := s.Submit(&SubmitRequest{Graph: text, K: 2 + i, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
	}
	// Journaling is asynchronous only for terminal records (the watch
	// goroutine); give them a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Snapshot()["journal.rotations"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("journal never rotated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()

	recs, dropped, err := ReplayJournal(journalPath)
	if err != nil || dropped != 0 {
		t.Fatalf("replay after rotation: dropped=%d err=%v", dropped, err)
	}
	byID := map[string]bool{}
	for _, rec := range recs {
		byID[rec.ID] = true
	}
	if len(byID) != 4 {
		t.Errorf("journal retains %d jobs after rotation, want 4", len(byID))
	}
}

// TestLegacyEstimatorJournalRecovers: a journal written by a daemon
// that still had the service-time estimator carries "estimator" lines
// with their cell tables between job records. Replay must skip them
// without tearing the journal, recover every job in order, drop the
// lines at the first rotation, and replay again after it.
func TestLegacyEstimatorJournalRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	g, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	est := `{"type":"estimator","id":"estimator","est":[{"algo":0,"bucket":7,"wall":0.004,"modeled":0.0002}]}`
	var buf strings.Builder
	for _, line := range []any{
		Record{Type: RecSubmit, ID: "j000001", Seq: 1, Req: &SubmitRequest{Graph: text, K: 2, Seed: 1}},
		Record{Type: RecRunning, ID: "j000001"},
		Record{Type: RecDone, ID: "j000001", Key: "k1", Result: &JobResult{Part: make([]int, 100), EdgeCut: 0}},
		est,
		Record{Type: RecSubmit, ID: "j000002", Seq: 2, Req: &SubmitRequest{Graph: text, K: 2, Seed: 2}},
		Record{Type: RecFailed, ID: "j000002", Error: "boom"},
		est,
		Record{Type: RecSubmit, ID: "j000003", Seq: 3, Req: &SubmitRequest{Graph: text, K: 2, Seed: 3}},
		est,
	} {
		if raw, ok := line.(string); ok {
			buf.WriteString(raw + "\n")
			continue
		}
		b, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	wantStates := []string{StateDone, StateFailed, StateDone}
	recoverAll := func() {
		t.Helper()
		s := New(Config{Devices: 1, QueueCap: 8, JournalPath: path})
		defer s.Close()
		if d := s.reg.Get("journal.replay_dropped"); d != 0 {
			t.Errorf("journal.replay_dropped = %v, want 0", d)
		}
		s.mu.Lock()
		order := append([]string(nil), s.order...)
		s.mu.Unlock()
		if want := []string{"j000001", "j000002", "j000003"}; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("recovered jobs %v, want %v", order, want)
		}
		for i, id := range order {
			j, _ := s.Job(id)
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				t.Fatalf("%s stuck after recovery", id)
			}
			if st := j.Status(); st.State != wantStates[i] {
				t.Errorf("%s recovered %s (%s), want %s", id, st.State, st.Error, wantStates[i])
			}
		}
	}
	recoverAll()
	// Opening the journal rotated it: the legacy lines are gone.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"estimator"`) {
		t.Errorf("rotated journal still holds an estimator line:\n%s", b)
	}
	recoverAll()
}

// TestCanceledResultNotCached is the cache-poisoning regression test: a
// job whose context expired but whose run still returned a result (the
// metis path never polls Cancel) must finish canceled WITHOUT entering
// the cache — an identical submit afterwards is a miss.
func TestCanceledResultNotCached(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 8, CacheCap: 8})
	defer s.Close()
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Graph: graphText(t, g), K: 4, Algo: "metis"}

	job, err := resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	job.ctx, job.cancel = context.WithCancel(context.Background())
	s.assignID(job)
	job.markRunning(0, 0)
	job.cancel() // canceled mid-flight; metis ignores the Cancel hook
	s.pool.runJob(job, 0)

	if st := job.Status(); st.State != StateCanceled {
		t.Fatalf("state %s, want canceled (result must not bind a canceled job)", st.State)
	}
	if _, ok := s.cache.Get(job.key); ok {
		t.Fatal("canceled job's result poisoned the cache")
	}
	fresh, err := s.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	<-fresh.Done()
	if st := fresh.Status(); st.State != StateDone || st.Cached {
		t.Errorf("identical submit after cancel: state=%s cached=%v, want a fresh done run", st.State, st.Cached)
	}
}

// TestSingleFlight hammers the scheduler with identical and distinct
// concurrent submissions: the identical set must execute exactly once
// (one leader, the rest coalesced onto it) and every job must still get
// the right answer.
func TestSingleFlight(t *testing.T) {
	s := New(Config{Devices: 2, QueueCap: 32, CacheCap: 64})
	defer s.Close()
	g, err := gpmetis.Grid2D(25, 25)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	const identicalK = 7 // marks the identical set in beforeRun

	var mu sync.Mutex
	execs := map[string]int{}
	release := make(chan struct{})
	leaderPopped := make(chan struct{}, 1)
	s.beforeRun = func(j *Job) {
		mu.Lock()
		execs[j.key]++
		mu.Unlock()
		if j.k == identicalK {
			select {
			case leaderPopped <- struct{}{}:
			default:
			}
			<-release // hold the leader so followers pile up behind it
		}
	}

	leader, err := s.Submit(&SubmitRequest{Graph: text, K: identicalK, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-leaderPopped

	var wg sync.WaitGroup
	followers := make([]*Job, 9)
	distinct := make([]*Job, 5)
	for i := range followers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(&SubmitRequest{Graph: text, K: identicalK, Seed: 5})
			if err != nil {
				t.Error(err)
				return
			}
			followers[i] = j
		}(i)
	}
	for i := range distinct {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(&SubmitRequest{Graph: text, K: 3, Seed: int64(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			distinct[i] = j
		}(i)
	}
	wg.Wait()
	close(release)

	<-leader.Done()
	want := leader.Status()
	if want.State != StateDone {
		t.Fatalf("leader state %s (%s)", want.State, want.Error)
	}
	coalesced := 0
	for i, j := range followers {
		<-j.Done()
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("follower %d state %s (%s)", i, st.State, st.Error)
		}
		if st.Coalesced {
			coalesced++
		}
		if st.Result.EdgeCut != want.Result.EdgeCut {
			t.Errorf("follower %d cut %d != leader cut %d", i, st.Result.EdgeCut, want.Result.EdgeCut)
		}
	}
	for i, j := range distinct {
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("distinct %d state %s (%s)", i, st.State, st.Error)
		}
	}
	mu.Lock()
	n := execs[leader.key]
	mu.Unlock()
	if n != 1 {
		t.Errorf("identical request executed %d times, want exactly 1 (single-flight)", n)
	}
	if coalesced == 0 {
		t.Error("no follower was coalesced onto the in-flight leader")
	}
	if m := s.reg.Snapshot(); m["jobs.coalesced"] != float64(coalesced) {
		t.Errorf("jobs.coalesced = %v, want %d", m["jobs.coalesced"], coalesced)
	}
}

// TestDeviceLostFailsOnlyItsJob: a modeled device loss comes from the
// request's own fault scenario, so it fails that job and nothing else.
// However many such jobs run, the slot takes the next healthy job at
// once, well inside a tight deadline.
func TestDeviceLostFailsOnlyItsJob(t *testing.T) {
	// The graph must exceed the default GPUThreshold: the fault site is a
	// GPU kernel launch, so a pure-CPU run would never lose the device.
	g, err := gpmetis.Delaunay(17000, 1)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	smallG, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Devices: 1, QueueCap: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const lost = 36
	for i := 0; i < lost; i++ {
		st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{
			Graph: text, K: 4, Faults: "gpu.kernel:p=1", NoCache: true,
		})
		if apiErr != nil {
			t.Fatal(apiErr.Error)
		}
		final := httpPoll(t, ts.URL, st.ID)
		if final.State != StateFailed || !strings.Contains(final.Error, "device lost") {
			t.Fatalf("fault job %d: state %s (%s), want failed with a device loss", i, final.State, final.Error)
		}
	}
	if m := httpMetrics(t, ts.URL); m("devices.faults") != lost {
		t.Errorf("devices.faults = %v, want %d", m("devices.faults"), lost)
	}

	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{
		Graph: graphText(t, smallG), K: 4, DeadlineMs: 2000,
	})
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	if final := httpPoll(t, ts.URL, st.ID); final.State != StateDone {
		t.Errorf("healthy job after %d device losses: state %s (%s)", lost, final.State, final.Error)
	}
}

// TestJournalDegradation: a journal that cannot be opened (or written)
// must cost durability, never availability — the daemon keeps serving
// and says so in the metrics.
func TestJournalDegradation(t *testing.T) {
	s := New(Config{
		Devices:     1,
		QueueCap:    8,
		JournalPath: filepath.Join(t.TempDir(), "no-such-dir", "journal.jsonl"),
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	st, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: graphText(t, g), K: 4})
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	if final := httpPoll(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("job on degraded server: state %s (%s)", final.State, final.Error)
	}
	m := httpMetrics(t, ts.URL)
	if m("journal.degraded") != 1 || m("journal.errors") < 1 {
		t.Errorf("degradation metrics = degraded %v errors %v, want 1 / >=1",
			m("journal.degraded"), m("journal.errors"))
	}
}
