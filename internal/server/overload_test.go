package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// submitBody marshals a SubmitRequest for a raw http.Post.
func submitBody(t *testing.T, req SubmitRequest) io.Reader {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// fakeClock is an injectable wall clock for the tenants' token buckets.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// countEvents tallies flight-recorder events by type.
func countEvents(s *Server, typ string) int {
	n := 0
	for _, e := range s.events.Snapshot() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// TestWeightedFairDequeueOrder is the fairness property test: two
// tenants weighted 3:1 submit identical-cost work into a saturated
// queue, and the dequeue order must serve them in that proportion.
// With equal per-job cost (one graph) the SFQ schedule is deterministic,
// so of the first 20 dequeues exactly 15 should be the weight-3
// tenant's — the ±1 tolerance keeps the assertion within the ±10%
// fairness objective without pinning heap tie-breaking forever.
func TestWeightedFairDequeueOrder(t *testing.T) {
	s := New(Config{
		Devices: 1, QueueCap: 64, CacheCap: 8,
		Tenants: TenantsConfig{"paid": {Weight: 3}, "free": {Weight: 1}},
	})
	defer s.Close()

	release := make(chan struct{})
	var gate sync.Once
	var mu sync.Mutex
	var order []string
	s.beforeRun = func(j *Job) {
		if j.tenant.name != DefaultTenant {
			mu.Lock()
			order = append(order, j.tenant.name)
			mu.Unlock()
		}
		gate.Do(func() { <-release }) // hold the first popped job only
	}

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	// The blocker occupies the only worker so the 40 tenant jobs all tag
	// and queue before any of them is popped: pure saturation.
	blocker, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 99, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForDepthDrain(t, s, 0)

	var jobs []*Job
	for i := 0; i < 20; i++ {
		for _, tenant := range []string{"paid", "free"} {
			j, err := s.Submit(&SubmitRequest{
				Graph: text, K: 4, Seed: int64(100 + len(jobs)), NoCache: true, Tenant: tenant,
			})
			if err != nil {
				t.Fatalf("submit %s #%d: %v", tenant, i, err)
			}
			jobs = append(jobs, j)
		}
	}

	close(release)
	<-blocker.Done()
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s (%s): %s (%s)", st.ID, st.Tenant, st.State, st.Error)
		}
	}

	mu.Lock()
	first := append([]string(nil), order[:20]...)
	mu.Unlock()
	paid := 0
	for _, name := range first {
		if name == "paid" {
			paid++
		}
	}
	// 3:1 over 20 slots is 15/5; ±1 keeps us inside the ±10% objective.
	if paid < 14 || paid > 16 {
		t.Errorf("first 20 dequeues served paid %d times, want 15±1 (3:1 weighted fairness); order=%v", paid, first)
	}

	// The per-tenant accounting must agree: both tenants completed all
	// their jobs, and the served modeled seconds are tracked. Completion
	// counters are closed by the async watch goroutines, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, ts := range s.tenants.snapshot() {
			if ts.Name != DefaultTenant && ts.Completed != 20 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant completion counters never reached 20: %+v", s.tenants.snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, ts := range s.tenants.snapshot() {
		if ts.Name != DefaultTenant && ts.ServedModeledSeconds <= 0 {
			t.Errorf("tenant %s served %v modeled seconds, want > 0", ts.Name, ts.ServedModeledSeconds)
		}
	}
}

// TestCacheHitWhileQueueFull: a request cached earlier is answered from
// the cache while the queue is full. Hits never queue, so overload must
// not turn them into misses or refusals.
func TestCacheHitWhileQueueFull(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 2, CacheCap: 8})
	defer s.Close()
	var gateOn atomic.Bool
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) {
		if gateOn.Load() {
			gate.Do(func() { <-release })
		}
	}
	defer close(release)

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	req := SubmitRequest{Graph: text, K: 4, Seed: 7}

	first, err := s.Submit(&req)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()

	// Hold the worker, then fill the queue.
	gateOn.Store(true)
	if _, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 100, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	waitForDepthDrain(t, s, 0)
	for i := int64(1); i <= 2; i++ {
		if _, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 100 + i, NoCache: true}); err != nil {
			t.Fatalf("fill #%d: %v", i, err)
		}
	}
	if _, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 103, NoCache: true}); OverloadCode(err) != CodeOverloaded {
		t.Fatalf("submit to the full queue: err %v, want code %q", err, CodeOverloaded)
	}

	again := req
	j, err := s.Submit(&again)
	if err != nil {
		t.Fatalf("cached resubmit at a full queue: %v", err)
	}
	<-j.Done()
	st := j.Status()
	if !st.Cached || st.State != StateDone {
		t.Fatalf("resubmit at a full queue: cached=%v state=%s, want a cache hit", st.Cached, st.State)
	}
	if st.Result.EdgeCut != first.Status().Result.EdgeCut {
		t.Errorf("cached edge cut %d, want %d", st.Result.EdgeCut, first.Status().Result.EdgeCut)
	}
}

// TestPushOutAtFullQueue is the overload e2e: a full queue makes room
// for a tenant under its weighted share by pushing out the over-share
// tenant's latest job. With the worker held and the queue (cap 8) full
// of "free" (weight 1) work, each of two "paid" (weight 3) submissions
// is admitted and evicts one free job; free's share is 8·1/4 = 2, so a
// further free submission gets the 429 "overloaded".
func TestPushOutAtFullQueue(t *testing.T) {
	s := New(Config{
		Devices: 1, QueueCap: 8, CacheCap: 8,
		Tenants: TenantsConfig{"paid": {Weight: 3}, "free": {Weight: 1}},
	})
	defer s.Close()
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not leave Close waiting on the held worker
	var gate sync.Once
	s.beforeRun = func(*Job) { gate.Do(func() { <-release }) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	blocker, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 300, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	waitForDepthDrain(t, s, 0)

	var free, paid []*Job
	for i := int64(0); i < 8; i++ {
		j, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 400 + i, NoCache: true, Tenant: "free"})
		if err != nil {
			t.Fatalf("free #%d: %v", i, err)
		}
		free = append(free, j)
	}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 500 + int64(i), NoCache: true, Tenant: "paid"})
		if err != nil {
			t.Fatalf("paid #%d refused at the full queue: %v", i, err)
		}
		paid = append(paid, j)
		// The victim is free's latest job, failed before Submit returns.
		st := free[7-i].Status()
		if st.State != StateFailed || !strings.HasPrefix(st.Error, "shed") {
			t.Errorf("after paid #%d, free #%d: %s (%q), want failed with a shed: error", i, 7-i, st.State, st.Error)
		}
	}
	_, apiErr, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 600, NoCache: true, Tenant: "free"})
	if apiErr == nil || code != http.StatusTooManyRequests || apiErr.Code != CodeOverloaded {
		t.Fatalf("free submission at a full queue over its share: HTTP %d %+v, want 429 %q", code, apiErr, CodeOverloaded)
	}

	if m := s.reg.Get("jobs.shed"); m != 2 {
		t.Errorf("jobs.shed = %v, want 2", m)
	}
	if m := s.reg.Get("jobs.failed"); m != 2 {
		t.Errorf("jobs.failed = %v, want 2", m)
	}
	if m := s.reg.Get("queue.depth"); m != 8 {
		t.Errorf("queue.depth = %v, want 8", m)
	}
	if n := countEvents(s, obs.EvShed); n != 2 {
		t.Errorf("%d shed events, want 2", n)
	}
	for _, tst := range s.tenants.snapshot() {
		want := map[string]int64{"free": 2}[tst.Name]
		if tst.Shed != want {
			t.Errorf("tenant %s shed = %d, want %d", tst.Name, tst.Shed, want)
		}
	}

	// Drain: every job that was not pushed out completes.
	unblock()
	<-blocker.Done()
	for _, j := range append(paid, free[:6]...) {
		<-j.Done()
		if st := j.Status(); st.State != StateDone {
			t.Errorf("job %s (%s): %s (%s), want done", st.ID, st.Tenant, st.State, st.Error)
		}
	}
}

// TestQueuedDeadlineExpiresEagerly: a queued job whose deadline passes
// must fail at expiry time — freeing its queue slot — not when a worker
// eventually pops it.
func TestQueuedDeadlineExpiresEagerly(t *testing.T) {
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

	doomed, err := s.Submit(&SubmitRequest{Graph: text, K: 4, Seed: 2, NoCache: true, DeadlineMs: 40})
	if err != nil {
		t.Fatal(err)
	}

	// The worker stays held: only the eager expiry can finish the job.
	select {
	case <-doomed.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("queued job did not expire eagerly; it waited for a worker pop")
	}
	if st := doomed.Status(); st.State != StateFailed {
		t.Errorf("expired job state %s (%s), want failed", st.State, st.Error)
	}
	if depth := s.fq.Len(); depth != 0 {
		t.Errorf("queue depth %d after eager expiry, want 0 (slot must free at expiry time)", depth)
	}
	if d := s.reg.Get("queue.depth"); d != 0 {
		t.Errorf("queue.depth gauge %v, want 0", d)
	}
	if countEvents(s, obs.EvQueueExpired) != 1 {
		t.Error("no queue_expired lifecycle event recorded")
	}

	close(release)
	<-blocker.Done()
	if st := blocker.Status(); st.State != StateDone {
		t.Errorf("blocker state %s (%s), want done", st.State, st.Error)
	}
}

// TestDynamicRetryAfter: the 429 Retry-After must be derived from the
// queue depth times the mean measured run time over the device count,
// and the draining 503 must carry the same live hint.
func TestDynamicRetryAfter(t *testing.T) {
	s := New(Config{Devices: 1, QueueCap: 2, CacheCap: 8})
	defer s.Close()
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) { gate.Do(func() { <-release }) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	// A measured 3s run makes two queued jobs 6s of work ahead of a
	// rejection.
	s.reg.Observe("job.run_seconds", 3.0)

	if _, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 1, NoCache: true}); apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	waitForDepthDrain(t, s, 0)
	for i := int64(2); i <= 3; i++ {
		if _, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: i, NoCache: true}); apiErr != nil {
			t.Fatalf("job %d should queue: %s", i, apiErr.Error)
		}
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		submitBody(t, SubmitRequest{Graph: text, K: 4, Seed: 4, NoCache: true}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "6" {
		t.Errorf("Retry-After = %q, want \"6\" (2 queued jobs x 3s estimate / 1 device)", ra)
	}

	// The draining 503 derives its hint from the same live estimate.
	s.StartDrain()
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		submitBody(t, SubmitRequest{Graph: text, K: 4, Seed: 5, NoCache: true}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d while draining, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "6" {
		t.Errorf("draining Retry-After = %q, want \"6\"", ra)
	}

	close(release)
}

// TestTenantRateLimit: a tenant with a 1/s token bucket gets one job
// through, a typed rate_limited rejection immediately after, and
// another admission once the bucket refills on the injected clock.
func TestTenantRateLimit(t *testing.T) {
	clock := newFakeClock()
	s := New(Config{
		Devices: 1, QueueCap: 8, CacheCap: 8,
		Tenants: TenantsConfig{"rl": {RatePerSec: 1, Burst: 1}},
		Now:     clock.Now,
	})
	defer s.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	req := func(seed int64) *SubmitRequest {
		return &SubmitRequest{Graph: text, K: 4, Seed: seed, NoCache: true, Tenant: "rl"}
	}

	first, err := s.Submit(req(1))
	if err != nil {
		t.Fatalf("first submission should spend the burst token: %v", err)
	}
	_, err = s.Submit(req(2))
	if OverloadCode(err) != CodeRateLimited {
		t.Fatalf("second submission: OverloadCode = %q (%v), want %q", OverloadCode(err), err, CodeRateLimited)
	}
	if m := s.reg.Get("jobs.rejected_ratelimit"); m != 1 {
		t.Errorf("jobs.rejected_ratelimit = %v, want 1", m)
	}

	clock.Advance(1500 * time.Millisecond)
	third, err := s.Submit(req(3))
	if err != nil {
		t.Fatalf("submission after refill rejected: %v", err)
	}
	<-first.Done()
	<-third.Done()
}

// TestTenantQuota: a tenant with max_queued 1 holds one queue slot;
// its second submission gets the typed tenant_quota rejection while
// other tenants keep queueing.
func TestTenantQuota(t *testing.T) {
	s := New(Config{
		Devices: 1, QueueCap: 8, CacheCap: 8,
		Tenants: TenantsConfig{"capped": {MaxQueued: 1}},
	})
	defer s.Close()
	release := make(chan struct{})
	var gate sync.Once
	s.beforeRun = func(*Job) { gate.Do(func() { <-release }) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)

	if _, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 1, NoCache: true}); apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	waitForDepthDrain(t, s, 0)

	if _, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 2, NoCache: true, Tenant: "capped"}); apiErr != nil {
		t.Fatalf("first capped job should queue: %s", apiErr.Error)
	}
	_, apiErr, code := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 3, NoCache: true, Tenant: "capped"})
	if apiErr == nil {
		t.Fatal("over-quota submission accepted; want 429")
	}
	if code != http.StatusTooManyRequests || apiErr.Code != CodeTenantQuota {
		t.Errorf("got HTTP %d code %q, want 429 %q", code, apiErr.Code, CodeTenantQuota)
	}

	// The quota is per-tenant: the default tenant still queues.
	if _, apiErr, _ := httpSubmit(t, ts.URL, SubmitRequest{Graph: text, K: 4, Seed: 4, NoCache: true}); apiErr != nil {
		t.Errorf("default tenant blocked by another tenant's quota: %s", apiErr.Error)
	}
	if m := s.reg.Get("jobs.rejected_quota"); m != 1 {
		t.Errorf("jobs.rejected_quota = %v, want 1", m)
	}
	close(release)
}

// TestFairQueueOrdering pins the SFQ schedule at the queue level: a
// weight-2 tenant's equal-cost jobs dequeue twice as often, ties break
// by arrival, and Remove keeps the accounting straight.
func TestFairQueueOrdering(t *testing.T) {
	q := newFairQueue(16, nil)
	ta := &tenantState{name: "a", cfg: TenantConfig{Weight: 2}.withDefaults()}
	tb := &tenantState{name: "b", cfg: TenantConfig{Weight: 1}.withDefaults()}

	mk := func(ts *tenantState) *Job {
		j := &Job{tenant: ts, cost: 1.0}
		if _, err := q.Push(j, true); err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Interleaved arrivals: a1 b1 a2 b2 a3 b3.
	a1, b1 := mk(ta), mk(tb)
	a2, b2 := mk(ta), mk(tb)
	a3, b3 := mk(ta), mk(tb)

	if depth := q.Len(); depth != 6 {
		t.Errorf("Len = %d, want 6", depth)
	}

	// Finish tags: a at 0.5, 1.0, 1.5; b at 1, 2, 3. The tie at 1.0
	// breaks by arrival (b1 before a2).
	want := []*Job{a1, b1, a2, a3, b2, b3}
	for i, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("pop %d: got tenant %s, want tenant %s", i, got.tenant.name, w.tenant.name)
		}
	}
	if ta.queued != 0 || tb.queued != 0 {
		t.Errorf("queued counts after drain: a=%d b=%d, want 0/0", ta.queued, tb.queued)
	}

	// Remove pulls a specific job and fixes the books; a second Remove
	// reports the job gone.
	x := mk(ta)
	y := mk(tb)
	if !q.Remove(x) {
		t.Fatal("Remove(x) = false for a queued job")
	}
	if q.Remove(x) {
		t.Fatal("Remove(x) = true twice")
	}
	if depth := q.Len(); depth != 1 {
		t.Errorf("Len after remove = %d, want 1", depth)
	}
	if got := q.Pop(); got != y {
		t.Error("Pop after Remove returned the removed job")
	}
}

// TestFairQueuePushOut pins push-out at the queue level: only a fresh
// push from a tenant under its share evicts, the victim is the
// lowest-weight over-share tenant's latest job, and eviction neither
// advances virtual time nor leaves the victim's finish tag charged to
// its tenant, so the pusher is served ahead of the work left queued.
func TestFairQueuePushOut(t *testing.T) {
	q := newFairQueue(4, nil)
	paid := &tenantState{name: "paid", cfg: TenantConfig{Weight: 3}.withDefaults()}
	free := &tenantState{name: "free", cfg: TenantConfig{Weight: 1}.withDefaults()}
	mk := func(ts *tenantState) *Job { return &Job{tenant: ts, cost: 1.0} }

	var frees []*Job
	for i := 0; i < 4; i++ {
		j := mk(free)
		if _, err := q.Push(j, true); err != nil {
			t.Fatal(err)
		}
		frees = append(frees, j)
	}
	// Re-admissions never evict, and neither does a tenant at its share:
	// alone in the queue, free's share is all 4 slots.
	if _, err := q.Push(mk(paid), false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("re-admission at a full queue: err %v, want ErrQueueFull", err)
	}
	if _, err := q.Push(mk(free), true); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("free push at its own full share: err %v, want ErrQueueFull", err)
	}

	p := mk(paid)
	victim, err := q.Push(p, true)
	if err != nil {
		t.Fatalf("paid push at a full queue: %v", err)
	}
	if victim != frees[3] {
		t.Fatal("victim is not free's latest job")
	}
	if free.queued != 3 || free.lastFinish != 3 {
		t.Errorf("free after eviction: queued %d lastFinish %v, want 3 and 3", free.queued, free.lastFinish)
	}
	if depth := q.Len(); depth != 4 {
		t.Errorf("Len = %d, want 4", depth)
	}
	// paid's finish tag is 1/3: it dequeues before every free job.
	want := []*Job{p, frees[0], frees[1], frees[2]}
	for i, w := range want {
		if got := q.Pop(); got != w {
			t.Fatalf("pop %d: got tenant %s, want tenant %s", i, got.tenant.name, w.tenant.name)
		}
	}
}

// TestFairQueueQuotaCountsLiveQueue: replay and takeover re-admit past
// the quota, so the next fresh push's refusal must report the tenant's
// live queued count beside the limit.
func TestFairQueueQuotaCountsLiveQueue(t *testing.T) {
	q := newFairQueue(8, nil)
	ts := &tenantState{name: "t", cfg: TenantConfig{MaxQueued: 2}.withDefaults()}
	for i := 0; i < 3; i++ {
		if _, err := q.Push(&Job{tenant: ts, cost: 1.0}, false); err != nil {
			t.Fatalf("re-admission %d: %v", i, err)
		}
	}
	_, err := q.Push(&Job{tenant: ts, cost: 1.0}, true)
	var qe *quotaError
	if !errors.As(err, &qe) {
		t.Fatalf("fresh push over quota: err %v, want a quotaError", err)
	}
	if want := `tenant "t" over quota: 3 jobs already queued (max_queued 2)`; err.Error() != want {
		t.Errorf("quota message %q, want %q", err.Error(), want)
	}
}

// TestFairQueuePushOutConcurrent races fresh pushes from two tenants
// against a popper on a small queue: every admitted job is either
// popped or pushed out exactly once, and the books balance once the
// queue drains.
func TestFairQueuePushOutConcurrent(t *testing.T) {
	q := newFairQueue(4, nil)
	paid := &tenantState{name: "paid", cfg: TenantConfig{Weight: 3}.withDefaults()}
	free := &tenantState{name: "free", cfg: TenantConfig{Weight: 1}.withDefaults()}

	var admitted, shed, pops atomic.Int64
	popped := make(chan struct{})
	go func() {
		defer close(popped)
		for q.Pop() != nil {
			pops.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for _, ts := range []*tenantState{paid, free, paid, free} {
		wg.Add(1)
		go func(ts *tenantState) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				victim, err := q.Push(&Job{tenant: ts, cost: 1.0}, true)
				switch {
				case err == nil:
					admitted.Add(1)
				case !errors.Is(err, ErrQueueFull):
					t.Errorf("push: %v", err)
				}
				if victim != nil {
					shed.Add(1)
				}
			}
		}(ts)
	}
	wg.Wait()
	q.Close()
	<-popped
	if a, p, v := admitted.Load(), pops.Load(), shed.Load(); a != p+v {
		t.Errorf("%d admitted, %d popped + %d pushed out, want equal", a, p, v)
	}
	if depth := q.Len(); depth != 0 || paid.queued != 0 || free.queued != 0 {
		t.Errorf("after drain: depth %d queued paid %d free %d, want all 0", depth, paid.queued, free.queued)
	}
}
