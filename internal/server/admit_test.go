package server

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// TestSingleFlightNoDuplicateRun resubmits each key from several
// goroutines while its leader completes. A submitter that misses the
// cache just before the leader stores its result, and then finds the
// in-flight index already cleared, would claim leadership and run the
// key a second time. Every key must run exactly once.
func TestSingleFlightNoDuplicateRun(t *testing.T) {
	s := New(Config{Devices: 2, QueueCap: 256, CacheCap: 256, Logger: obs.DiscardLogger()})
	defer s.Close()
	g, err := gpmetis.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	var mu sync.Mutex
	runs := map[string]int{}
	s.beforeRun = func(j *Job) {
		mu.Lock()
		runs[j.key]++
		mu.Unlock()
	}

	const rounds, submitters = 100, 8
	for r := 0; r < rounds; r++ {
		req := SubmitRequest{Graph: text, K: 2, Algo: "metis", Seed: int64(r + 1)}
		first := req
		if _, err := s.Submit(&first); err != nil {
			t.Fatal(err)
		}
		// Each submitter resubmits until it is answered from the cache,
		// which happens only once the round's leader has completed.
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					again := req
					j, err := s.Submit(&again)
					if err != nil {
						t.Error(err)
						return
					}
					if j.Status().Cached {
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(runs) != rounds {
		t.Errorf("%d keys ran, want %d", len(runs), rounds)
	}
	dup := 0
	for _, n := range runs {
		if n != 1 {
			dup++
		}
	}
	if dup > 0 {
		t.Errorf("%d of %d keys ran more than once, want every key to run exactly once", dup, len(runs))
	}
}

// heldLeader boots a one-device server whose first popped job blocks in
// beforeRun until release is closed, submits that leader, and coalesces
// n identical followers onto it. It counts device runs in runs.
func heldLeader(t *testing.T, cfg Config, n int) (s *Server, leader *Job, followers []*Job, release chan struct{}, runs *int) {
	t.Helper()
	g, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Graph: graphText(t, g), K: 2, Algo: "metis"}
	cfg.Devices, cfg.Logger = 1, obs.DiscardLogger()
	s = New(cfg)
	var mu sync.Mutex
	runs = new(int)
	popped, release := make(chan struct{}), make(chan struct{})
	s.beforeRun = func(*Job) {
		mu.Lock()
		*runs++
		first := *runs == 1
		mu.Unlock()
		if first {
			close(popped)
			<-release
		}
	}
	leader, err = s.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	<-popped
	for i := 0; i < n; i++ {
		again := req
		j, err := s.Submit(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !j.Status().Coalesced {
			t.Fatalf("follower %d not coalesced onto the held leader", i)
		}
		followers = append(followers, j)
	}
	return s, leader, followers, release, runs
}

// serverGoroutines returns the stack of every goroutine with a Server
// method on it, one entry per goroutine. A goroutine merely created by
// one (its "created by" line) does not count.
func serverGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "gpmetis/internal/server.(*Server)") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// TestCloseWaitsForFollowers releases a held leader with followers
// coalesced onto it and closes the server at once. Close must wait out
// every follower goroutine before it closes the journal: none may still
// run a Server method, and no journal append may fail.
func TestCloseWaitsForFollowers(t *testing.T) {
	for round := 0; round < 20; round++ {
		before := len(serverGoroutines())
		s, _, _, release, _ := heldLeader(t, Config{
			QueueCap: 16, CacheCap: 8, JournalPath: filepath.Join(t.TempDir(), "journal.jsonl"),
		}, 8)
		close(release)
		s.Close()
		// Close returns once every goroutine it tracks has run its
		// deferred wg.Done, but a goroutine can still be unwinding its
		// closure just after that call: give those a moment to exit.
		gs := serverGoroutines()
		for deadline := time.Now().Add(time.Second); len(gs) > before && time.Now().Before(deadline); gs = serverGoroutines() {
			time.Sleep(time.Millisecond)
		}
		if len(gs) > before {
			t.Fatalf("round %d: %d goroutines still run a Server method after Close, want at most %d:\n%s",
				round, len(gs), before, strings.Join(gs, "\n\n"))
		}
		if n := s.reg.Get("journal.errors"); n != 0 {
			t.Fatalf("round %d: journal.errors = %v after Close, want 0", round, n)
		}
	}
}

// TestFollowerTakeover cancels a held leader with followers coalesced
// onto it: exactly one follower takes the key over and runs on a
// device, the others adopt its result, and all report one cut.
func TestFollowerTakeover(t *testing.T) {
	s, leader, followers, release, runs := heldLeader(t, Config{QueueCap: 8, CacheCap: 8}, 4)
	defer s.Close()
	leader.Cancel()
	close(release)
	<-leader.Done()
	if st := leader.Status(); st.State != StateCanceled {
		t.Fatalf("leader state %s, want canceled", st.State)
	}
	ran, cut := 0, -1
	for i, f := range followers {
		<-f.Done()
		st := f.Status()
		if st.State != StateDone {
			t.Fatalf("follower %d state %s (%s), want done", i, st.State, st.Error)
		}
		if st.Device >= 0 {
			ran++
		}
		if cut < 0 {
			cut = st.Result.EdgeCut
		} else if st.Result.EdgeCut != cut {
			t.Errorf("follower %d cut %d, want %d like the others", i, st.Result.EdgeCut, cut)
		}
	}
	if ran != 1 {
		t.Errorf("%d followers ran on a device, want exactly 1 to take over", ran)
	}
	if *runs != 2 {
		t.Errorf("key popped %d times, want 2 (the canceled leader and the takeover)", *runs)
	}
	if n := s.reg.Get("jobs.coalesced"); n != float64(len(followers)) {
		t.Errorf("jobs.coalesced = %v, want %d (each follower once)", n, len(followers))
	}
}

// TestRecoveryRecoalesces restarts on a journal holding two queued
// submit records of one request: identical interrupted jobs coalesce
// at recovery as they would at submit, so one runs on a device and the
// other adopts its result.
func TestRecoveryRecoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	g, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	req := &SubmitRequest{Graph: graphText(t, g), K: 2, Algo: "metis"}
	appendRecords(t, path,
		Record{Type: RecSubmit, ID: "j000001", Seq: 1, Req: req},
		Record{Type: RecSubmit, ID: "j000002", Seq: 2, Req: req},
	)
	s := New(Config{Devices: 2, QueueCap: 8, CacheCap: 8, JournalPath: path, Logger: obs.DiscardLogger()})
	defer s.Close()
	var sts []JobStatus
	for _, id := range []string{"j000001", "j000002"} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		<-j.Done()
		sts = append(sts, j.Status())
	}
	for _, st := range sts {
		if st.State != StateDone {
			t.Fatalf("job %s state %s (%s), want done", st.ID, st.State, st.Error)
		}
	}
	if sts[0].Device < 0 || sts[0].Coalesced {
		t.Errorf("first job device=%d coalesced=%v, want it run on a device", sts[0].Device, sts[0].Coalesced)
	}
	if sts[1].Device >= 0 || !sts[1].Coalesced {
		t.Errorf("second job device=%d coalesced=%v, want it coalesced onto the first", sts[1].Device, sts[1].Coalesced)
	}
	if sts[0].Result.EdgeCut != sts[1].Result.EdgeCut {
		t.Errorf("cuts %d and %d differ", sts[0].Result.EdgeCut, sts[1].Result.EdgeCut)
	}
}
