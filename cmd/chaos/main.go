// Command chaos is the seeded chaos-soak harness: it hammers the
// partitioning pipeline and the serving layer with randomized fault
// scenarios, interruptions, and restarts, and checks the recovery
// invariants after every round (`make chaos`, DESIGN.md §10).
//
// Usage:
//
//	chaos [-runs 25] [-seed 1] [-start 0] [-only core|resume|daemon|overload|cluster|replication] [-v]
//
// Every run derives its private RNG from (-seed, run index), so any
// failure is replayable in isolation: on failure the harness prints a
//
//	CHAOS FAIL seed=S run=R mode=M
//
// line plus the exact single-run replay command, and exits nonzero.
//
// Modes, rotated per run unless -only pins one:
//
//	core:   a random graph, k, and fault scenario; the run must either
//	        produce a valid partition or fail with a typed error, and
//	        repeating it with identical seeds must be bit-identical.
//	resume: a run is interrupted at a random level boundary; resuming
//	        from the snapshot must reproduce the uninterrupted run's
//	        partition, edge cut, and modeled seconds exactly.
//	daemon: a journaled server accepts a burst of jobs (duplicates,
//	        faults, cancels), is shut down mid-stream, and is restarted
//	        on the same journal; every job must come back, reach a
//	        terminal state, and completed results must survive.
//	overload: a two-tenant open-loop burst, paced at a third of a job's
//	        run time, overfills a one-device server's queue; admission
//	        control must hold its contracts
//	        — accepted work completes or is shed (never stuck), the
//	        weight-3 tenant is never refused or shed because a full
//	        queue pushes out over-share work of the weight-1 tenant,
//	        and a 1ms deadline is admitted and ends done or expired.
//	cluster: a 3-node consistent-hash ring absorbs a submission stream
//	        while one random node dies mid-storm; every accepted job
//	        must complete or be shed with a typed rejection — and every
//	        submission must be servable by the survivors afterward, so
//	        no job is ever lost to the dead node.
//	replication: a 4-node RF=2 ring replicates completed results; a
//	        kill storm (one node at a time, process and cache both)
//	        must lose no replicated entry — survivors serve every
//	        digest bit-identically at zero partition cost, pushes to
//	        the dead node are skipped, and after restart rejoin
//	        catch-up restores the node's full replica duty, including
//	        the digests completed while it was dead.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

var verbose bool

func main() {
	runs := flag.Int("runs", 25, "number of chaos rounds")
	seed := flag.Int64("seed", 1, "master seed; each run derives its own RNG from (seed, run)")
	start := flag.Int("start", 0, "first run index (for replaying one failing round)")
	only := flag.String("only", "", "pin one mode: core, resume, daemon, overload, cluster, or replication")
	flag.BoolVar(&verbose, "v", false, "log each round")
	flag.Parse()

	modes := []string{"core", "resume", "daemon", "overload", "cluster", "replication"}
	if *only != "" {
		switch *only {
		case "core", "resume", "daemon", "overload", "cluster", "replication":
			modes = []string{*only}
		default:
			fmt.Fprintf(os.Stderr, "chaos: unknown mode %q\n", *only)
			os.Exit(2)
		}
	}

	begin := time.Now()
	for r := *start; r < *start+*runs; r++ {
		mode := modes[r%len(modes)]
		rng := rand.New(rand.NewSource(*seed*1_000_003 + int64(r)))
		var err error
		switch mode {
		case "core":
			err = chaosCore(rng)
		case "resume":
			err = chaosResume(rng)
		case "daemon":
			err = chaosDaemon(rng)
		case "overload":
			err = chaosOverload(rng)
		case "cluster":
			err = chaosCluster(rng)
		case "replication":
			err = chaosReplication(rng)
		}
		if err != nil {
			fmt.Printf("CHAOS FAIL seed=%d run=%d mode=%s: %v\n", *seed, r, mode, err)
			fmt.Printf("replay: go run ./cmd/chaos -seed %d -start %d -runs 1 -only %s -v\n",
				*seed, r, mode)
			os.Exit(1)
		}
		if verbose {
			fmt.Printf("chaos: run %d (%s) ok\n", r, mode)
		}
	}
	fmt.Printf("chaos: OK — %d runs, seed %d, %.1fs\n", *runs, *seed, time.Since(begin).Seconds())
}

// randomGraph picks a small graph whose shape varies per round. The
// returned GPU threshold forces the full GPU pipeline onto it so the
// level-boundary machinery (checkpoints, fault sites) is exercised.
func randomGraph(rng *rand.Rand) (*gpmetis.Graph, int, error) {
	if rng.Intn(2) == 0 {
		n := 24 + rng.Intn(40)
		g, err := gpmetis.Grid2D(n, n+rng.Intn(7))
		return g, 256, err
	}
	g, err := gpmetis.Delaunay(2000+rng.Intn(4000), rng.Int63n(1000)+1)
	return g, 256, err
}

// faultPool is the scenario menu for core rounds; "" means a clean run.
var faultPool = []string{
	"",
	"",
	"gpu.kernel:p=0.3",
	"pcie.transfer:p=0.2",
	"gpu.memcap:cap=1M",
	"contract.hash:at=1",
	"gpu.kernel:p=0.1;pcie.transfer:p=0.1",
	"gpu.alloc:p=0.5",
}

// chaosCore: a fault-injected run must be deterministic (same seeds →
// same outcome, success or failure) and any produced partition valid.
func chaosCore(rng *rand.Rand) error {
	g, threshold, err := randomGraph(rng)
	if err != nil {
		return err
	}
	k := 2 + rng.Intn(14)
	seed := rng.Int63n(10_000) + 1
	spec := faultPool[rng.Intn(len(faultPool))]
	faultSeed := rng.Int63n(10_000) + 1
	degrade := rng.Intn(2) == 0

	run := func() (*gpmetis.Result, error) {
		inj, err := gpmetis.ParseFaultScenario(faultSeed, spec)
		if err != nil {
			return nil, err
		}
		return gpmetis.Partition(g, k, gpmetis.Options{
			Seed:         seed,
			GPUThreshold: threshold,
			Faults:       inj,
			Degrade:      degrade,
			Verify:       true,
		})
	}
	res1, err1 := run()
	res2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		return fmt.Errorf("nondeterministic outcome under faults %q: %v vs %v", spec, err1, err2)
	}
	if err1 != nil {
		if err2.Error() != err1.Error() {
			return fmt.Errorf("nondeterministic error under faults %q: %q vs %q", spec, err1, err2)
		}
		return nil // a deterministic typed failure is a legal outcome
	}
	if err := validPartition(g, res1.Part, k); err != nil {
		return fmt.Errorf("faults %q: %w", spec, err)
	}
	if err := sameResult(res1, res2); err != nil {
		return fmt.Errorf("repeat run under faults %q: %w", spec, err)
	}
	return nil
}

// chaosResume: interrupt a run at a random level boundary, resume from
// the snapshot, and demand the uninterrupted run's exact result.
func chaosResume(rng *rand.Rand) error {
	g, threshold, err := randomGraph(rng)
	if err != nil {
		return err
	}
	k := 2 + rng.Intn(14)
	seed := rng.Int63n(10_000) + 1

	// Pass 1: the uninterrupted reference, counting boundaries.
	boundaries := 0
	ref, err := gpmetis.Partition(g, k, gpmetis.Options{
		Seed:         seed,
		GPUThreshold: threshold,
		Checkpoint:   func(*gpmetis.Checkpoint) error { boundaries++; return nil },
	})
	if err != nil {
		return err
	}
	if boundaries == 0 {
		return errors.New("run produced no checkpoint boundaries")
	}

	// Pass 2: snapshot at a random boundary (the "crash point").
	target := 1 + rng.Intn(boundaries)
	dir, err := os.MkdirTemp("", "chaos-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")
	n := 0
	if _, err := gpmetis.Partition(g, k, gpmetis.Options{
		Seed:         seed,
		GPUThreshold: threshold,
		Checkpoint: func(c *gpmetis.Checkpoint) error {
			n++
			if n == target {
				return gpmetis.WriteCheckpointFile(path, c)
			}
			return nil
		},
	}); err != nil {
		return err
	}

	// Pass 3: resume from the crash point.
	c, err := gpmetis.ReadCheckpointFile(path)
	if err != nil {
		return fmt.Errorf("reload snapshot %d/%d: %w", target, boundaries, err)
	}
	got, err := gpmetis.Partition(g, k, gpmetis.Options{
		Seed:         seed,
		GPUThreshold: threshold,
		Resume:       c,
	})
	if err != nil {
		return fmt.Errorf("resume from snapshot %d/%d: %w", target, boundaries, err)
	}
	if err := sameResult(ref, got); err != nil {
		return fmt.Errorf("resume from snapshot %d/%d: %w", target, boundaries, err)
	}
	return nil
}

// chaosDaemon: a journaled server loses a burst of jobs to a shutdown
// and must account for every one of them after restart.
func chaosDaemon(rng *rand.Rand) error {
	dir, err := os.MkdirTemp("", "chaos-daemon-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{
		Devices:       1 + rng.Intn(3),
		QueueCap:      64,
		JournalPath:   filepath.Join(dir, "journal.jsonl"),
		CheckpointDir: dir,
		Logger:        obs.DiscardLogger(), // chaos output stays clean
	}
	s1 := server.New(cfg)

	texts := make([]string, 3)
	for i := range texts {
		n := 16 + rng.Intn(16)
		g, err := gpmetis.Grid2D(n, n)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := gpmetis.WriteGraph(&sb, g); err != nil {
			return err
		}
		texts[i] = sb.String()
	}

	type submitted struct {
		id      string
		done    bool
		edgeCut int
	}
	var jobs []*server.Job
	total := 6 + rng.Intn(8)
	for i := 0; i < total; i++ {
		req := &server.SubmitRequest{
			Graph: texts[rng.Intn(len(texts))],
			K:     2 + rng.Intn(6),
			Seed:  int64(1 + rng.Intn(3)),
		}
		if rng.Intn(4) == 0 {
			req.Faults = "gpu.memcap:cap=1M"
			req.Degrade = true
		}
		if rng.Intn(5) == 0 {
			req.NoCache = true
		}
		j, err := s1.Submit(req)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		if rng.Intn(6) == 0 {
			j.Cancel()
		}
		jobs = append(jobs, j)
	}
	// Let a random prefix finish; the rest is lost to the "crash".
	settle := rng.Intn(len(jobs) + 1)
	for i := 0; i < settle; i++ {
		select {
		case <-jobs[i].Done():
		case <-time.After(30 * time.Second):
			return fmt.Errorf("job %s stuck before shutdown", jobs[i].ID)
		}
	}
	before := make([]submitted, len(jobs))
	for i, j := range jobs {
		st := j.Status()
		before[i] = submitted{id: j.ID}
		if st.State == server.StateDone && st.Result != nil {
			before[i].done = true
			before[i].edgeCut = st.Result.EdgeCut
		}
	}
	s1.Close()

	// Restart on the same journal: every job must come back and finish.
	s2 := server.New(cfg)
	defer s2.Close()
	for _, b := range before {
		j, ok := s2.Job(b.id)
		if !ok {
			return fmt.Errorf("job %s vanished across restart", b.id)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := j.Status()
			if st.State == server.StateDone || st.State == server.StateFailed ||
				st.State == server.StateCanceled {
				if b.done {
					if st.State != server.StateDone || st.Result == nil {
						return fmt.Errorf("job %s was done before restart but is %s after", b.id, st.State)
					}
					if st.Result.EdgeCut != b.edgeCut {
						return fmt.Errorf("job %s cut changed across restart: %d -> %d",
							b.id, b.edgeCut, st.Result.EdgeCut)
					}
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("job %s stuck in %s after restart", b.id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// chaosOverload: an open-loop two-tenant burst against a one-device
// server overfills its queue. The overload-control invariants must hold
// on every seed:
//
//   - every accepted job reaches a terminal state, and that state is
//     either done or shed — nothing gets stuck and nothing accepted
//     fails a deadline;
//   - no "paid" (weight 3) submission is refused or shed: a full queue
//     makes room for it by pushing out a queued job of the low-weight
//     "free" tenant, which holds more than its share, and only "free"
//     jobs are ever shed;
//   - a 1ms-deadline probe is admitted, not refused, and ends done or
//     failed with "deadline exceeded": eager expiry, not admission,
//     answers a deadline the queue cannot meet;
//   - shed events match the shed jobs, and the server still completes
//     work after the storm.
func chaosOverload(rng *rand.Rand) error {
	g, err := gpmetis.Delaunay(2500+rng.Intn(2500), rng.Int63n(1000)+1)
	if err != nil {
		return err
	}
	var sb strings.Builder
	if err := gpmetis.WriteGraph(&sb, g); err != nil {
		return err
	}
	text := sb.String()

	cfg := server.Config{
		Devices:     1,
		QueueCap:    8,
		CacheCap:    -1, // every job must really run, or there is no load
		EventBuffer: 1024,
		Logger:      obs.DiscardLogger(),
		Tenants: server.TenantsConfig{
			"paid": {Weight: 3},
			"free": {Weight: 1},
		},
	}
	s := server.New(cfg)
	defer s.Close()

	type tracked struct {
		job    *server.Job
		tenant string
	}
	// The burst is open loop, paced at a third of a job's run time,
	// measured here: the paid third or quarter of the mix then arrives no
	// faster than the device serves it, while the free rest overfills the
	// queue. The pace must not hang on the submit path's own cost: a
	// burst much faster than the device puts more paid jobs in the queue
	// than the paid tenant's share, and the server rightly refuses them.
	warm := time.Now()
	w, err := s.Submit(&server.SubmitRequest{Graph: text, K: 12, NoCache: true})
	if err != nil {
		return fmt.Errorf("pacing job: %w", err)
	}
	select {
	case <-w.Done():
	case <-time.After(60 * time.Second):
		return errors.New("pacing job stuck")
	}
	gap := time.Since(warm) / 3

	var accepted []tracked
	freeRefused := 0
	total := 30 + rng.Intn(21)
	paidEvery := 3 + rng.Intn(2) // paid is 1/3 or 1/4 of the mix
	for i := 0; i < total; i++ {
		if i > 0 {
			time.Sleep(gap)
		}
		tenant := "free"
		if i%paidEvery == 0 {
			tenant = "paid"
		}
		// High k keeps service time well above the per-submit parse cost,
		// so the queue actually builds depth during the burst.
		j, err := s.Submit(&server.SubmitRequest{
			Graph:   text,
			K:       8 + rng.Intn(9),
			Seed:    int64(i + 1),
			NoCache: true,
			Tenant:  tenant,
		})
		if err != nil {
			code := server.OverloadCode(err)
			if code == "" {
				return fmt.Errorf("burst submit %d (%s): unexpected error: %w", i, tenant, err)
			}
			if tenant == "paid" {
				return fmt.Errorf("paid submission %d refused (%s): %v; a full queue must push out over-share free work instead",
					i, code, err)
			}
			freeRefused++
			continue
		}
		accepted = append(accepted, tracked{j, tenant})
	}

	for _, t := range accepted {
		select {
		case <-t.job.Done():
		case <-time.After(60 * time.Second):
			return fmt.Errorf("job %s (%s) stuck under overload", t.job.ID, t.tenant)
		}
	}
	shed := 0
	completed := map[string]int{}
	var paidWait []float64
	for _, t := range accepted {
		st := t.job.Status()
		switch {
		case st.State == server.StateDone:
			completed[t.tenant]++
			if t.tenant == "paid" {
				paidWait = append(paidWait, st.WaitSeconds)
			}
		case st.State == server.StateFailed && strings.HasPrefix(st.Error, "shed"):
			if t.tenant != "free" {
				return fmt.Errorf("tenant %q job %s was shed; only the over-share free tenant may be",
					t.tenant, st.ID)
			}
			shed++
		default:
			return fmt.Errorf("job %s (%s) ended %s (%q); accepted work must complete or be shed",
				st.ID, t.tenant, st.State, st.Error)
		}
	}
	if verbose {
		sort.Float64s(paidWait)
		p50, pmax := 0.0, 0.0
		if n := len(paidWait); n > 0 {
			p50, pmax = paidWait[n/2], paidWait[n-1]
		}
		fmt.Printf("chaos: overload paid completed=%d wait_p50=%.3fs wait_max=%.3fs; free completed=%d refused=%d shed=%d\n",
			completed["paid"], p50, pmax, completed["free"], freeRefused, shed)
	}

	// A 1ms deadline is admitted; the run or eager expiry settles it.
	probes := 1 + rng.Intn(3)
	for i := 0; i < probes; i++ {
		p, err := s.Submit(&server.SubmitRequest{
			Graph: text, K: 2, Seed: 999, NoCache: true, Tenant: "free", DeadlineMs: 1,
		})
		if err != nil {
			return fmt.Errorf("1ms-deadline probe %d refused: %w", i, err)
		}
		select {
		case <-p.Done():
		case <-time.After(60 * time.Second):
			return fmt.Errorf("1ms-deadline probe %d stuck", i)
		}
		if st := p.Status(); st.State != server.StateDone &&
			(st.State != server.StateFailed || !strings.Contains(st.Error, "deadline exceeded")) {
			return fmt.Errorf("1ms-deadline probe %d ended %s (%q), want done or deadline exceeded",
				i, st.State, st.Error)
		}
	}

	// The storm has drained: the server must still complete new work.
	last, err := s.Submit(&server.SubmitRequest{Graph: text, K: 2, Seed: 424242, NoCache: true})
	if err != nil {
		return fmt.Errorf("post-storm submit: %w", err)
	}
	select {
	case <-last.Done():
	case <-time.After(60 * time.Second):
		return errors.New("post-storm job stuck")
	}
	if st := last.Status(); st.State != server.StateDone {
		return fmt.Errorf("post-storm job ended %s (%q)", st.State, st.Error)
	}

	var buf bytes.Buffer
	if err := s.DumpEvents(&buf); err != nil {
		return err
	}
	var dump struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		return fmt.Errorf("event dump: %w", err)
	}
	shedEvents := 0
	for _, e := range dump.Events {
		if e.Type == obs.EvShed {
			shedEvents++
		}
	}
	if shedEvents != shed {
		return fmt.Errorf("%d shed events for %d shed jobs", shedEvents, shed)
	}
	return nil
}

// validPartition checks every vertex is assigned a partition in range.
func validPartition(g *gpmetis.Graph, part []int, k int) error {
	if len(part) != g.NumVertices() {
		return fmt.Errorf("partition has %d entries for %d vertices", len(part), g.NumVertices())
	}
	for v, p := range part {
		if p < 0 || p >= k {
			return fmt.Errorf("vertex %d assigned to partition %d (k=%d)", v, p, k)
		}
	}
	return nil
}

// sameResult demands bit-identical outcomes.
func sameResult(a, b *gpmetis.Result) error {
	if a.EdgeCut != b.EdgeCut {
		return fmt.Errorf("edge cut %d != %d", b.EdgeCut, a.EdgeCut)
	}
	if a.ModeledSeconds != b.ModeledSeconds {
		return fmt.Errorf("modeled seconds %.17g != %.17g", b.ModeledSeconds, a.ModeledSeconds)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			return fmt.Errorf("part[%d] = %d != %d", i, b.Part[i], a.Part[i])
		}
	}
	return nil
}
