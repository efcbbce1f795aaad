package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// Version identifies the serving subsystem build, reported by /healthz
// and the gpmetisd_build_info metric.
const Version = "0.6.0"

// Config sizes the serving subsystem. Zero values take the defaults
// noted per field.
type Config struct {
	// Devices is the scheduler pool size: how many jobs run concurrently,
	// each on a private clone of the machine model (default 2).
	Devices int
	// QueueCap bounds the job queue; submissions beyond it are rejected
	// with ErrQueueFull (default 64).
	QueueCap int
	// CacheCap bounds the result cache in entries; < 0 disables caching
	// (default 128).
	CacheCap int
	// Machine is the base machine model each device slot clones; nil
	// means gpmetis.DefaultMachine().
	Machine *gpmetis.Machine
	// DefaultDeadline bounds jobs that set no deadline_ms; 0 means
	// unbounded.
	DefaultDeadline time.Duration
	// MaxJobs bounds the in-memory job index; the oldest terminal jobs
	// are forgotten beyond it (default 4096).
	MaxJobs int
	// JournalPath, when non-empty, enables the durable job journal: every
	// accepted job and its outcome is appended (fsynced) to this JSONL
	// file, and a restarted server replays it — completed results are
	// served again, interrupted jobs are re-admitted.
	JournalPath string
	// CheckpointDir, when non-empty, makes single-device GP-metis jobs
	// snapshot at every level boundary; after a crash the replayed jobs
	// resume from their last snapshot instead of starting over.
	CheckpointDir string
	// JournalRotateEvery compacts the journal after this many records
	// (default 4096): terminal jobs collapse to submit+outcome pairs, the
	// submit without graph text, and forgotten jobs drop out.
	JournalRotateEvery int
	// Logger receives structured operational logs. Every job-scoped line
	// carries job_id and trace_id attributes. Nil means a text handler on
	// os.Stderr at info level; use obs.DiscardLogger to silence.
	Logger *slog.Logger
	// EventBuffer sizes the lifecycle flight recorder: how many recent
	// events GET /admin/events retains (default 256).
	EventBuffer int
	// Tenants configures multi-tenant admission: per-tenant weight,
	// max-queued quota, and token-bucket rate limits. Nil means every
	// tenant runs under the built-in default contract (weight 1, no
	// quota, no rate limit). See LoadTenantsFile for the JSON form.
	Tenants TenantsConfig
	// Now is the wall clock behind the tenants' token-bucket rate
	// limits; nil means time.Now. Injectable for tests.
	Now func() time.Time
	// JobIDPrefix prefixes generated job IDs (default "j"). Cluster nodes
	// set a per-node prefix ("n0-j", "n1-j", ...) so IDs are unique across
	// the ring and an entry node's forwarding table can never confuse a
	// local job with one it forwarded elsewhere.
	JobIDPrefix string
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.CacheCap == 0 {
		c.CacheCap = 128
	}
	if c.CacheCap < 0 {
		c.CacheCap = 0
	}
	if c.Machine == nil {
		c.Machine = gpmetis.DefaultMachine()
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.JournalRotateEvery == 0 {
		c.JournalRotateEvery = 4096
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, obs.LogText, slog.LevelInfo)
	}
	if c.EventBuffer == 0 {
		c.EventBuffer = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.JobIDPrefix == "" {
		c.JobIDPrefix = "j"
	}
	return c
}

// Server owns the queue, the device pool, the result cache, the job
// index, and (when configured) the durable journal. Create with New,
// serve its Handler, and Close on shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *Cache
	fq      *fairQueue
	tenants *tenantTable
	pool    *pool
	journal *Journal

	log      *slog.Logger
	events   *obs.EventRing
	draining atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing and retention
	seq      int
	inflight map[string]*Job // cache key -> live leader (single-flight)

	journalWarn sync.Once

	// ring holds the ring tier's hooks, installed by SetRing (nil on a
	// standalone daemon). Read on every submission, log line and
	// flight-recorder event, hence the atomic.
	ring atomic.Pointer[RingHooks]

	// replicaKeys (guarded by mu) tracks cache entries this node holds
	// as a ring replica of a peer's work, so journal rotation preserves
	// them and a restart re-seeds them without re-replicating.
	replicaKeys map[string]bool

	start time.Time

	// beforeRun, when non-nil, is called by a worker after popping a job
	// and before checking its context — a test seam that makes queue-full
	// and cancellation scenarios deterministic.
	beforeRun func(*Job)
}

// New builds a Server, replays its journal if one is configured, and
// starts the device-pool workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := &obs.Registry{}
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		cache:       NewCache(cfg.CacheCap, reg),
		fq:          newFairQueue(cfg.QueueCap, reg),
		tenants:     newTenantTable(cfg.Tenants, reg),
		jobs:        map[string]*Job{},
		inflight:    map[string]*Job{},
		replicaKeys: map[string]bool{},
		start:       time.Now(),
	}
	s.log = cfg.Logger
	s.events = obs.NewEventRing(cfg.EventBuffer)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.reg.Set("devices.total", float64(cfg.Devices))
	s.reg.Set("queue.cap", float64(cfg.QueueCap))
	s.reg.Set("draining", 0)
	s.reg.Describe("build_info", "Build metadata; the value is always 1.")
	// Declare the lifecycle latency histograms eagerly so their series
	// exist in /metrics from the first scrape, not the first job.
	for _, h := range []string{
		"job.queue_seconds", "job.run_seconds", "job.total_seconds", "job.modeled_seconds",
	} {
		s.reg.DeclareHistogram(h, nil)
	}
	s.pool = newPool(s, cfg.Devices, cfg.Machine)
	if cfg.JournalPath != "" {
		// Recover before the workers start so re-admitted jobs keep their
		// submission order, then open the journal for appending and
		// compact away the replayed history (including any torn tail).
		s.recover()
		j, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			s.journalDegraded(err)
		} else {
			s.journal = j
			if err := s.journal.Rotate(s.compactRecords()); err != nil {
				s.journalDegraded(err)
			}
		}
	}
	s.pool.start(s.baseCtx)
	return s
}

// Close stops the workers and closes the journal. Queued jobs are
// abandoned in place (the journal re-admits them on restart); running
// jobs finish their current level and stop at the next boundary only if
// their own contexts are canceled, so callers wanting a hard stop should
// cancel jobs first.
func (s *Server) Close() {
	s.baseCancel()
	s.wg.Wait()
	s.journal.Close()
}

// journalAppend appends records in one durable write, degrading to
// non-durable operation on the first failure: the error is logged once,
// the journal.degraded gauge flips, and the server keeps serving.
func (s *Server) journalAppend(recs ...Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(recs...); err != nil {
		s.journalDegraded(err)
		return
	}
	s.reg.Add("journal.appends", 1)
	if s.journal.Appends() >= int64(s.cfg.JournalRotateEvery) {
		if err := s.journal.Rotate(s.compactRecords()); err != nil {
			s.journalDegraded(err)
		} else {
			s.reg.Add("journal.rotations", 1)
		}
	}
}

// journalDegraded records a durability failure: counted always, logged
// loudly once. The daemon stays up — losing durability must not lose
// availability.
func (s *Server) journalDegraded(err error) {
	s.reg.Add("journal.errors", 1)
	s.reg.Set("journal.degraded", 1)
	s.journalWarn.Do(func() {
		s.log.Error("journal degraded, continuing WITHOUT durability", "error", err.Error())
	})
}

// compactRecords rewrites the live job index as a minimal record
// sequence: submit(+running) for live jobs, submit+outcome for terminal
// ones, whose submit carries no graph text. It is the rotation image of
// the journal.
func (s *Server) compactRecords() []Record {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	var recs []Record
	for _, j := range jobs {
		recs = j.appendImage(recs)
	}
	// Replica-held entries rotate with the journal too: they are a
	// peer's completed work, so losing them on compaction would silently
	// shrink the ring's replication factor. Entries the LRU has since
	// evicted drop out of both the image and the tracking set.
	s.mu.Lock()
	rkeys := make([]string, 0, len(s.replicaKeys))
	for k := range s.replicaKeys {
		rkeys = append(rkeys, k)
	}
	s.mu.Unlock()
	sort.Strings(rkeys)
	for _, k := range rkeys {
		c, ok := s.cache.Peek(k)
		if !ok {
			s.mu.Lock()
			delete(s.replicaKeys, k)
			s.mu.Unlock()
			continue
		}
		res := c.Result
		recs = append(recs, Record{Type: RecReplica, ID: replicaRecordID(k), Key: k, Result: &res})
	}
	return recs
}

// replicaRecordID derives a journal record ID for a replica-held cache
// key; replay only needs it to be non-empty and stable per key.
func replicaRecordID(key string) string {
	if len(key) > 12 {
		key = key[:12]
	}
	return "replica-" + key
}

// watch follows a job to its terminal state: it releases the job's
// single-flight leadership, journals the outcome unless journalSubmit
// already did, and closes the job's observability account (lifecycle
// spans, flight-recorder event, outcome log line). Recovered jobs skip journaling of states
// that replay already proved.
func (s *Server) watch(j *Job) {
	select {
	case <-j.Done():
	case <-s.baseCtx.Done():
		// Shutdown: jobs abandoned in the queue never finish; their
		// journal records already mark them live for the next process.
		return
	}
	s.release(j)
	if !j.outcomeJournaled {
		s.journalOutcome(j)
	}
	st := j.Status()
	// Freshly computed results fan out to the replication hook. Cache
	// hits, coalesced followers, and journal replays never fire it:
	// their results either already replicated when first computed or
	// are themselves replicas.
	if st.State == StateDone && st.Result != nil && j.key != "" &&
		!j.recovered && !j.cached && !j.coalesced {
		if fn := s.hooks().Result; fn != nil {
			fn(j.key, st.Result)
		}
	}
	s.observeTerminal(j)
}

// Metrics returns the server's counter registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// RingHooks attaches the ring tier to a server. The server only calls
// plain functions and reads plain data, so internal/cluster can depend
// on this package without a cycle.
type RingHooks struct {
	// NodeID is this node's ring identity. Every job-scoped log line,
	// every flight-recorder event, every NodeTrace and the build_info
	// metric carry it, so fleet-merged streams stay attributable.
	NodeID string
	// Addr is this node's host:port, stamped as node on every JobStatus
	// the server writes and as NodeTrace.Addr.
	Addr string
	// Status snapshots the ring for /healthz and /admin/status(.json).
	Status func() *ClusterStatus
	// Result, when non-nil, is called with the content key and result
	// of every job that completes fresh on this node — not cache hits,
	// not coalesced followers, not journal replays. It runs on the
	// job's watcher goroutine, so it must hand off (not perform) slow
	// work. Replication hangs off it.
	Result func(key string, res *JobResult)
	// Route is offered every cacheable submission that was not itself
	// forwarded, once it is resolved and holds its trace id. It may
	// answer w itself (a peek hit, a forward, a replica) and return
	// true; false admits the job on this node.
	Route func(w http.ResponseWriter, j *Job) bool
}

// SetRing installs the ring tier's hooks; a zero RingHooks detaches
// the ring. A node identity replaces a standalone build_info series a
// scrape may already have set.
func (s *Server) SetRing(h RingHooks) {
	s.ring.Store(&h)
	if h.NodeID != "" {
		s.reg.Delete("build_info", buildLabels(""))
	}
}

// standalone is the zero hook set a server without a ring reads.
var standalone RingHooks

// hooks returns the installed ring hooks, zero on a standalone daemon.
func (s *Server) hooks() *RingHooks {
	if h := s.ring.Load(); h != nil {
		return h
	}
	return &standalone
}

// clusterStatus snapshots the ring tier, nil on a standalone daemon.
func (s *Server) clusterStatus() *ClusterStatus {
	if fn := s.hooks().Status; fn != nil {
		return fn()
	}
	return nil
}

// status snapshots a job for the wire, stamped with this node's
// address when it is a ring member.
func (s *Server) status(j *Job) JobStatus {
	st := j.Status()
	st.Node = s.hooks().Addr
	return st
}

// KeyForRequest resolves req exactly as Submit would and returns its
// content-addressed cache key ("" for NoCache submissions): the digest
// the ring routes that submission on. Tools and tests use it to find a
// request's owner; the request path resolves each submission once, in
// Submit.
func KeyForRequest(req *SubmitRequest) (string, error) {
	j, err := resolveRequest(req)
	if err != nil {
		return "", err
	}
	return j.key, nil
}

// PeekCached returns a copy of the cached result under a content key
// without touching hit/miss accounting or recency — the read behind the
// cluster tier's GET /internal/cache/{digest}.
func (s *Server) PeekCached(key string) (*JobResult, bool) {
	c, ok := s.cache.Peek(key)
	if !ok {
		return nil, false
	}
	res := c.Result // shallow copy; Part is shared and immutable
	return &res, true
}

// StoreReplicated stores a peer's completed result under its content key
// — the write behind the cluster tier's PUT /internal/cache/{digest}
// (replication, decommission pushes, anti-entropy repair). It bypasses
// hit/miss accounting, journals a replica record so the entry survives a
// restart, and reports whether the entry was newly stored: false means
// the cache already held it (or caching is disabled), which is how the
// receiver dedups redundant pushes.
func (s *Server) StoreReplicated(key string, res *JobResult) bool {
	if key == "" || res == nil || s.cfg.CacheCap < 1 {
		return false
	}
	if _, ok := s.cache.Peek(key); ok {
		return false
	}
	s.cache.Put(key, &CachedResult{Result: *res})
	s.mu.Lock()
	s.replicaKeys[key] = true
	s.mu.Unlock()
	s.reg.Add("cache.replicated", 1)
	r := *res
	s.journalAppend(Record{Type: RecReplica, ID: replicaRecordID(key), Key: key, Result: &r})
	return true
}

// CachedKeys returns the content keys of every cached result, the scan
// behind anti-entropy summaries and the decommission push.
func (s *Server) CachedKeys() []string { return s.cache.Keys() }

// RecordEvent appends one server-scoped flight-recorder event on behalf
// of a sibling tier (the cluster router's forwards and failovers).
func (s *Server) RecordEvent(typ, detail string) {
	s.event(typ, nil, -1, detail)
}

// RecordTracedEvent is RecordEvent for events belonging to a cluster
// background round: the round's trace id rides into the flight
// recorder, linking the event to the round's spans at
// GET /internal/trace/{trace_id}.
func (s *Server) RecordTracedEvent(typ, trace, detail string) {
	s.tracedEvent(typ, trace, detail)
}

// JobByTrace finds the job owning a trace id — the lookup behind the
// cluster tier's GET /internal/trace/{trace_id} for forwarded jobs.
// The scan is linear over the bounded job index; trace fetches are
// rare (one per stitched trace render).
func (s *Server) JobByTrace(traceID string) (*Job, bool) {
	if traceID == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.jobs[s.order[i]]; ok && j.TraceID() == traceID {
			return j, true
		}
	}
	return nil, false
}

// Submit validates req, consults the in-flight index and the result
// cache (see admit), and either attaches the job to an identical
// in-flight job (single-flight coalescing), completes it instantly
// (hit), or admits it to the weighted-fair queue. It rejects with
// ErrQueueFull (wrapped in an *overloadError carrying a dynamic
// Retry-After) at capacity, with overload errors coded tenant_quota /
// rate_limited when admission control refuses the tenant, with
// ErrDraining during graceful shutdown, and with a *requestError for
// invalid submissions.
func (s *Server) Submit(req *SubmitRequest) (*Job, error) { return s.submit(req, nil) }

// errRouted reports a submission the ring's route answered itself:
// nothing was admitted here.
var errRouted = errors.New("server: answered by the ring route")

// submit is Submit with the ring's route offered each resolved,
// cacheable submission that was not itself forwarded (forwarded jobs
// are pinned: re-forwarding could loop if ring views diverge). A
// routing node resolves before it checks draining, so a draining node
// still routes what it does not own.
func (s *Server) submit(req *SubmitRequest, route func(*Job) bool) (*Job, error) {
	if req.ForwardedBy != "" {
		route = nil
	}
	if route == nil && s.draining.Load() {
		s.reg.Add("jobs.rejected_draining", 1)
		return nil, ErrDraining
	}
	t0 := time.Now()
	job, err := resolveRequest(req)
	if route != nil {
		if err == nil && job.key != "" {
			job.traceID = obs.NewTraceID()
			if route(job) {
				return nil, errRouted
			}
		}
		if s.draining.Load() {
			s.reg.Add("jobs.rejected_draining", 1)
			return nil, ErrDraining
		}
	}
	if err != nil {
		s.reg.Add("jobs.bad_request", 1)
		return nil, err
	}
	job.submittedAt = t0
	if req.ForwardedBy != "" {
		// The ring forward that delivered this job appears in its own
		// trace: a zero-width wall span carrying the α+βn modeled cost of
		// the network hop. The entry node's trace context rides the
		// forward, so this job joins the caller's trace instead of
		// minting its own, and its spans parent under the caller's
		// cluster-forward span.
		if req.ForwardTraceID != "" {
			job.traceID = req.ForwardTraceID
			job.forwardSpan = req.ForwardSpanID
		}
		job.addLifeSpan(lifeClusterForward, t0, t0, map[string]any{
			"from": req.ForwardedBy, "net_modeled_seconds": req.ForwardNetSeconds,
		})
	}
	job.tenant = s.tenants.state(req.Tenant)
	s.tenantAdd(job.tenant, "tenant.submitted", 1)
	s.reg.Add("jobs.submitted", 1)

	// Token-bucket rate limit: the cheapest check runs first, before any
	// cache or queue state is touched.
	if ok, wait := job.tenant.allow(s.cfg.Now()); !ok {
		s.tenantAdd(job.tenant, "tenant.rejected", 1)
		s.reg.Add("jobs.rejected_ratelimit", 1)
		s.event(obs.EvRejected, nil, -1, "rate limited: tenant "+job.tenant.name)
		s.log.Warn("job rejected: tenant rate limited", "tenant", job.tenant.name)
		retry := int(math.Ceil(wait.Seconds()))
		if retry < 1 {
			retry = 1
		}
		return nil, &overloadError{
			code:       CodeRateLimited,
			msg:        fmt.Sprintf("tenant %q rate limited (%g/s, burst %g)", job.tenant.name, job.tenant.cfg.RatePerSec, job.tenant.cfg.Burst),
			retryAfter: retry,
		}
	}

	// The ID must exist before a worker can pop the job (its running
	// journal record carries it); a rejected submission burns it.
	s.startClock(job)
	s.assignID(job)
	outcome, leader, err := s.admit(job, true)
	if err != nil {
		return nil, s.reject(job, err)
	}
	s.index(job)
	job.addLifeSpan(lifeAdmit, t0, time.Now(), admitAttrs(job, outcome))
	switch outcome {
	case admitHit:
		s.event(obs.EvAdmit, job, -1, "cache hit")
		s.event(obs.EvCacheHit, job, -1, "")
		s.jlog(job).Info("job admitted", "outcome", outcome, "k", job.k)
	case admitCoalesced:
		s.event(obs.EvAdmit, job, -1, "coalesced behind "+leader.ID)
		s.event(obs.EvCoalesced, job, -1, "leader "+leader.ID)
		s.jlog(job).Info("job admitted", "outcome", outcome, "leader", leader.ID)
	default:
		s.event(obs.EvAdmit, job, -1, "queued")
		s.jlog(job).Info("job admitted", "outcome", outcome, "k", job.k,
			"vertices", job.vertices, "queue_depth", s.fq.Len(), "tenant", job.tenant.name)
	}
	// The submit record precedes the outcome record, or shares its append.
	s.journalSubmit(job)
	s.spawnWatch(job)
	return job, nil
}

// reject accounts for a fresh submission that admission control refused
// (tenant quota, full queue) and returns its wire
// error, carrying a Retry-After derived from live load.
func (s *Server) reject(j *Job, err error) error {
	s.tenantAdd(j.tenant, "tenant.rejected", 1)
	oe := &overloadError{msg: err.Error(), retryAfter: s.retryAfterSeconds(), wrapped: err}
	var qe *quotaError
	switch {
	case errors.As(err, &qe):
		oe.code = CodeTenantQuota
		s.reg.Add("jobs.rejected_quota", 1)
		s.event(obs.EvRejected, j, -1, oe.msg)
		s.jlog(j).Warn("job rejected: tenant over quota",
			"tenant", j.tenant.name, "max_queued", j.tenant.cfg.MaxQueued)
	default:
		oe.code = CodeOverloaded
		oe.msg = fmt.Sprintf("%v: capacity %d", ErrQueueFull, s.cfg.QueueCap)
		s.reg.Add("jobs.rejected", 1)
		s.event(obs.EvRejected, j, -1, "queue full")
		s.jlog(j).Warn("job rejected: queue full", "queue_cap", s.cfg.QueueCap)
	}
	return oe
}

// retryAfterSeconds derives the Retry-After hint from live load: the
// queue depth times the mean measured run time (the job.run_seconds
// histogram), divided across the device pool, floored at 1s and capped
// at 10 minutes.
func (s *Server) retryAfterSeconds() int {
	var mean float64
	if h, ok := s.reg.Histogram("job.run_seconds"); ok && h.Count > 0 {
		mean = h.Sum / float64(h.Count)
	}
	secs := int(math.Ceil(float64(s.fq.Len()) * mean / float64(s.cfg.Devices)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// overloadError is an admission-control rejection the HTTP layer maps to
// 429 with a machine-readable code and a load-derived Retry-After.
// Queue-full rejections wrap ErrQueueFull so errors.Is keeps working for
// direct API callers.
type overloadError struct {
	code       string
	msg        string
	retryAfter int
	wrapped    error
}

func (e *overloadError) Error() string { return e.msg }
func (e *overloadError) Unwrap() error { return e.wrapped }

// OverloadCode returns the wire code of an admission-control rejection
// ("overloaded", "tenant_quota", "rate_limited"),
// or "" when err is not an overload rejection.
func OverloadCode(err error) string {
	var oe *overloadError
	if errors.As(err, &oe) {
		return oe.code
	}
	return ""
}

// watchQueued enforces a queued job's deadline eagerly: if the job's
// context dies while it still sits in the fair queue, the job is pulled
// out and finished immediately — the queue slot frees at expiry time,
// not at the next worker pop. Shutdown is the exception: queued jobs are
// abandoned in place so the journal re-admits them on restart.
func (s *Server) watchQueued(j *Job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-j.Done():
		case <-j.ctx.Done():
			if s.baseCtx.Err() != nil {
				return // shutting down; leave the job queued for replay
			}
			if !s.fq.Remove(j) {
				return // a worker already popped it and owns the outcome
			}
			s.reg.Add("queue.depth", -1)
			now := time.Now()
			wait := now.Sub(j.queuedAt).Seconds()
			s.reg.Observe("job.queue_seconds", wait)
			j.addLifeSpan(lifeQueueWait, j.queuedAt, now, map[string]any{"expired": true})
			// Record the expiry before finishDead closes Done, so a
			// waiter woken by Done always finds the event.
			s.event(obs.EvQueueExpired, j, -1, fmt.Sprintf("after %.3fs queued", wait))
			s.jlog(j).Info("queued job expired eagerly", "wait_seconds", wait)
			s.pool.finishDead(j, j.ctx.Err())
		}
	}()
}

// shed fails a queued job that a fresh submission from tenant by pushed
// out of the full queue (see fairQueue.Push) with a retryable shed
// error. It runs outside the queue lock.
func (s *Server) shed(j *Job, by *tenantState) {
	s.reg.Add("queue.depth", -1)
	s.reg.Add("jobs.shed", 1)
	s.reg.Add("jobs.failed", 1)
	s.tenantAdd(j.tenant, "tenant.shed", 1)
	j.finish(StateFailed, nil, "shed: pushed out of the full queue by tenant "+by.name+", resubmit later")
	s.event(obs.EvShed, j, -1, "tenant "+j.tenant.name+" pushed out by "+by.name)
	s.jlog(j).Warn("queued job shed: pushed out of the full queue", "tenant", j.tenant.name, "by", by.name)
}

// admitAttrs builds the admit span's trace args.
func admitAttrs(j *Job, outcome string) map[string]any {
	return map[string]any{"outcome": outcome, "k": j.k, "vertices": j.vertices}
}

// spawnWatch runs watch under the server WaitGroup so Close drains it
// before closing the journal.
func (s *Server) spawnWatch(j *Job) {
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.watch(j) }()
}

// journalSubmit appends a job's admission record. A job already
// terminal here — a cache hit, born done, or a run that ended first —
// has dropped its graph text, and replay cannot rerun a submit without
// one: its submit goes down in one append with its outcome, and the
// watcher appends nothing more.
func (s *Server) journalSubmit(j *Job) {
	if s.journal == nil {
		return
	}
	j.mu.Lock()
	sub := Record{Type: RecSubmit, ID: j.ID, Seq: seqOf(j.ID), Req: j.req}
	_, terminal := j.outcomeLocked()
	j.mu.Unlock()
	if !terminal {
		s.journalAppend(sub)
		return
	}
	j.outcomeJournaled = true
	s.journalOutcome(j, sub)
}

// journalOutcome appends a terminal job's outcome record, in one append
// after the records in pre, and traces the append.
func (s *Server) journalOutcome(j *Job, pre ...Record) {
	if s.journal == nil {
		return
	}
	j.mu.Lock()
	rec, _ := j.outcomeLocked()
	j.mu.Unlock()
	jt0 := time.Now()
	s.journalAppend(append(pre, rec)...)
	j.addLifeSpan(lifeJournal, jt0, time.Now(), map[string]any{"record": rec.Type})
	s.event(obs.EvJournalAppend, j, -1, rec.Type)
}

// seqOf extracts the numeric sequence from a job ID: the trailing run
// of digits, so prefixes carrying digits of their own ("n2-j000042")
// do not pollute the sequence.
func seqOf(id string) int {
	n, mul := 0, 1
	for i := len(id) - 1; i >= 0; i-- {
		c := id[i]
		if c < '0' || c > '9' {
			break
		}
		n += int(c-'0') * mul
		mul *= 10
	}
	return n
}

// index inserts an already-named job into the index and applies the
// retention cap.
func (s *Server) index(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	// Forget the oldest terminal jobs beyond the cap. A live job is never
	// forgotten, but it holds back none of the terminal jobs behind it.
	excess := len(s.order) - s.cfg.MaxJobs
	var live []string
	i := 0
	for ; i < len(s.order) && excess > 0; i++ {
		id := s.order[i]
		if old := s.jobs[id]; old != nil && !old.terminal() {
			live = append(live, id)
			continue
		}
		delete(s.jobs, id)
		excess--
	}
	// The live jobs passed over keep their order, just before the
	// oldest job kept.
	s.order = s.order[i-len(live):]
	copy(s.order, live)
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Handler returns the HTTP API:
//
//	POST   /jobs            submit (202 queued, 200 cache hit, 429 full);
//	                        on a ring node, offered to RingHooks.Route first
//	GET    /jobs            list job statuses, oldest first
//	GET    /jobs/{id}       one job's status (result when done)
//	DELETE /jobs/{id}       cancel
//	GET    /jobs/{id}/trace Chrome trace_event JSON of the job's run
//	GET    /jobs/{id}/profile kernel-level roofline profile (profiled jobs)
//	GET    /metrics         Prometheus text exposition
//	GET    /healthz         liveness + occupancy + build info
//	GET    /admin/status.json  the ops view's data, for gpmetis -top
//	GET    /admin/events    flight recorder: recent lifecycle events
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /admin/status.json", s.handleStatusJSON)
	mux.HandleFunc("GET /admin/events", s.handleEvents)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 256<<20)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	var route func(*Job) bool
	if h := s.hooks(); h.Route != nil {
		route = func(j *Job) bool { return h.Route(w, j) }
	}
	job, err := s.submit(&req, route)
	var oe *overloadError
	switch {
	case errors.Is(err, errRouted):
	case err == nil:
		st := s.status(job)
		code := http.StatusAccepted
		if st.Cached {
			// A cache hit is born done. A fresh job that finished before
			// this status was read is still answered 202.
			code = http.StatusOK
		}
		writeJSON(w, code, st)
	case errors.As(err, &oe):
		// Every overload-class rejection (queue full, tenant quota, rate
		// limit) carries a Retry-After derived from live queue depth ×
		// measured run time, not a constant.
		w.Header().Set("Retry-After", strconv.Itoa(oe.retryAfter))
		writeError(w, http.StatusTooManyRequests, oe.code, oe.msg)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := s.status(j)
		st.Result = nil // listing stays light; fetch one job for the vector
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.Job(r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, s.status(j))
		return
	}
	writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleTrace serves the job's merged timeline as one Chrome
// trace_event document with two process rows:
//
//	pid 1 "service (wall clock)"      — the lifecycle spans, microseconds
//	                                    since admission
//	pid 2 "partition (modeled clock)" — the run's modeled span tree,
//	                                    shifted to start at the run
//	                                    span's wall offset
//
// Every modeled root span's args carry service_parent — the ID of the
// lifecycle span that caused it (the run span, or the cache-lookup span
// for cache hits, whose trace is the original run's) — so one document
// shows HTTP-to-kernel causality. A queued job already has a trace (its
// admission spans); the document grows as the job moves.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	nt := s.NodeTraceForJob(j)
	w.Header().Set("Content-Type", "application/json")
	// A write error leaves a truncated body, the only signal left once
	// the header is out.
	obs.WriteChromeJSON(w, nt.ChromeEvents(1, "service (wall clock)", "partition (modeled clock)", nt.Anchor, nil))
}

// handleMetrics serves the Prometheus text exposition of the registry
// under the gpmetisd_ prefix, after setting the values read at scrape
// time: build info, uptime, and cache occupancy and hit rate.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.reg.SetWith("build_info", buildLabels(s.hooks().NodeID), 1)
	s.reg.Set("uptime.seconds", time.Since(s.start).Seconds())
	s.reg.Set("cache.entries", float64(s.cache.Len()))
	s.reg.Set("cache.hit_rate", s.cacheHitRate())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.reg, "gpmetisd_")
}

// buildLabels is the build_info label set. The node label, present only
// on a ring member, is what lets fleet dashboards join build_info across
// a ring scrape.
func buildLabels(nodeID string) []obs.Label {
	labels := []obs.Label{
		{Key: "version", Value: Version},
		{Key: "go_version", Value: runtime.Version()},
	}
	if nodeID != "" {
		labels = append(labels, obs.Label{Key: "node", Value: nodeID})
	}
	return labels
}

// cacheHitRate is hits over lookups, 0 before the first lookup.
func (s *Server) cacheHitRate() float64 {
	hits, misses := s.reg.Get("cache.hits"), s.reg.Get("cache.misses")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// tenantAdd bumps one of a tenant's counters. Jobs rebuilt terminal from
// the journal carry no tenant.
func (s *Server) tenantAdd(t *tenantState, name string, v float64) {
	if t != nil {
		s.reg.AddWith(name, t.labels, v)
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	p := j.Profile()
	if p == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			`no kernel profile for this job (submit with "profile": true and wait for completion)`)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	h := HealthResponse{
		Status:         status,
		Devices:        s.cfg.Devices,
		QueueDepth:     s.fq.Len(),
		QueueCap:       s.cfg.QueueCap,
		Jobs:           n,
		Version:        Version,
		GoVersion:      runtime.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		ModeledSeconds: s.reg.Get("modeled.seconds"),
		EventsTotal:    s.events.Total(),
	}
	if lt := s.events.LastTime(); !lt.IsZero() {
		h.LastEvent = lt.UTC().Format(time.RFC3339Nano)
	}
	h.Cluster = s.clusterStatus()
	writeJSON(w, http.StatusOK, h)
}

// handleEvents serves the flight recorder's retained tail, oldest first.
func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	evs := s.events.Snapshot()
	if evs == nil {
		evs = []obs.Event{}
	}
	total := s.events.Total()
	writeJSON(w, http.StatusOK, EventsResponse{
		Total:   total,
		Dropped: total - int64(len(evs)),
		Events:  evs,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, apiCode, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg, Code: apiCode})
}
