// Package server implements the partition-serving subsystem behind the
// gpmetisd daemon: a bounded job queue with admission control, a
// device-pool scheduler that maps accepted jobs onto a fleet of modeled
// GPUs, and a content-addressed result cache keyed by graph digest plus
// canonicalized options (DESIGN.md §9).
//
// The serving layer sits strictly above the partitioning core: it speaks
// HTTP+JSON on the outside and the public gpmetis API on the inside.
// Three invariants hold throughout:
//
//   - Modeled-clock isolation. Every job runs against a private clone of
//     the machine model and carries its own Timeline, so concurrent jobs
//     never interleave modeled time; a job's ModeledSeconds is identical
//     to what a direct Partition call would report.
//   - Admission before work. A job is either accepted into the bounded
//     queue at submit time or rejected with the typed ErrQueueFull
//     (HTTP 429); accepted jobs cannot be lost, only completed, failed,
//     or canceled.
//   - Cache transparency. A cache hit returns the byte-identical
//     partition of the original run at zero additional modeled cost and
//     is marked Cached in the job status.
package server

import (
	"fmt"
	"time"

	"gpmetis/internal/obs"
)

// SubmitRequest is the wire form of one partition job. Graph carries the
// graph text inline (Chaco/Metis by default, DIMACS9 ".gr" with
// Format="gr"); the remaining fields mirror the gpmetis CLI flags. Zero
// values take the library defaults (algo "gp", seed 1, ub 1.03).
type SubmitRequest struct {
	Graph   string  `json:"graph"`
	Format  string  `json:"format,omitempty"` // "metis" (default) or "gr"
	K       int     `json:"k"`
	Algo    string  `json:"algo,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	UB      float64 `json:"ub,omitempty"`
	Threads int     `json:"threads,omitempty"`
	// Devices > 1 runs the job in GP-metis's multi-GPU mode. The job
	// still occupies one scheduler slot: a slot models the host-side
	// device context, not an individual GPU board.
	Devices int    `json:"devices,omitempty"`
	Merge   string `json:"merge,omitempty"` // "hash" (default) or "sort"
	// Faults is a per-job fault scenario in the gpmetis -faults syntax,
	// e.g. "gpu.memcap:cap=64M;pcie.transfer:p=0.01". FaultSeed seeds
	// the injection coins (0 means Seed).
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Degrade   bool   `json:"degrade,omitempty"`
	Verify    bool   `json:"verify,omitempty"`
	// Profile enables the kernel-level profiler for this job (GP-metis
	// only); the roofline report is then served at GET /jobs/{id}/profile.
	// Profiled and unprofiled submissions cache and coalesce separately.
	Profile bool `json:"profile,omitempty"`
	// DeadlineMs bounds the job's total wall-clock lifetime (queue wait
	// plus run). 0 means the server default. Expired jobs fail with a
	// deadline error; a queued job whose deadline fires never runs.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// NoCache skips the result cache in both directions.
	NoCache bool `json:"no_cache,omitempty"`
	// Tenant names the submitting tenant for weighted-fair queueing,
	// quotas, and rate limits (see TenantsConfig). Empty means the
	// "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// ForwardedBy and ForwardNetSeconds are set by the cluster tier when
	// a peer node forwards a submission to its ring owner: the entry
	// node's address and the α+βn modeled network seconds the forward
	// cost. They surface in the job's lifecycle trace and never
	// participate in the cache key, so a forwarded job caches identically
	// to a direct one. A non-empty ForwardedBy also pins the job to this
	// node — forwarded jobs are never re-forwarded.
	ForwardedBy       string  `json:"forwarded_by,omitempty"`
	ForwardNetSeconds float64 `json:"forward_net_seconds,omitempty"`
	// ForwardTraceID and ForwardSpanID carry the entry node's trace
	// context on a ring forward: the job keeps the entry node's trace id
	// and its lifecycle spans parent under the entry node's
	// cluster-forward span. Like ForwardedBy, neither participates in the
	// cache key.
	ForwardTraceID string `json:"forward_trace_id,omitempty"`
	ForwardSpanID  int64  `json:"forward_span_id,omitempty"`
}

// Job states. A job moves queued -> running -> done/failed, or to
// canceled from either live state. Cache hits are born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobResult is the outcome of a completed job, mirroring gpmetis.Result
// plus the achieved imbalance.
type JobResult struct {
	Part           []int   `json:"part"`
	EdgeCut        int     `json:"edge_cut"`
	Imbalance      float64 `json:"imbalance"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	FaultEvents    int     `json:"fault_events,omitempty"`
}

// JobStatus is the wire form of one job's current state.
type JobStatus struct {
	ID string `json:"id"`
	// TraceID correlates this job across log lines, lifecycle events, and
	// the merged trace at /jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
	State   string `json:"state"`
	// Cached marks a job served from the result cache; its result is the
	// original run's, at zero additional modeled cost.
	Cached bool `json:"cached,omitempty"`
	// Coalesced marks a single-flight follower: an identical request was
	// already in flight, and this job adopted its result instead of
	// occupying a second device slot.
	Coalesced bool `json:"coalesced,omitempty"`
	// Resumed marks a job continued from a crash-recovery checkpoint
	// rather than started from scratch.
	Resumed bool `json:"resumed,omitempty"`
	// Device is the pool slot the job ran on, -1 before scheduling and
	// for cache hits.
	Device int `json:"device"`
	// WaitSeconds is the wall-clock time the job spent queued before a
	// device picked it up.
	WaitSeconds float64 `json:"wait_seconds"`
	// Tenant is the tenant the job was admitted under.
	Tenant string `json:"tenant,omitempty"`
	// Node is the host:port of the ring node that answered for this job
	// (empty on a standalone daemon). A ring member's server stamps its
	// own address on every status it writes, so a forwarded submission,
	// relayed by its entry node, names the owner it was routed to; a
	// cross-node cache peek or replica answer names the node whose cache
	// answered.
	Node  string `json:"node,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is set once State is done.
	Result *JobResult `json:"result,omitempty"`
}

// ErrorResponse is the wire form of every non-2xx answer. Code is
// machine-readable: "overloaded" (queue full, retryable), "bad_request",
// "not_found".
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Error codes carried by ErrorResponse.
const (
	CodeOverloaded = "overloaded"
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	// CodeDraining marks submissions rejected because the daemon is
	// shutting down gracefully (HTTP 503): finish what is in flight,
	// accept nothing new.
	CodeDraining = "draining"
	// CodeTenantQuota marks submissions rejected because the tenant
	// already holds its max_queued slots (HTTP 429, retryable).
	CodeTenantQuota = "tenant_quota"
	// CodeRateLimited marks submissions rejected by the tenant's token
	// bucket (HTTP 429, retryable after Retry-After).
	CodeRateLimited = "rate_limited"
	// CodeClusterUnreachable marks a submission a cluster entry node
	// could not place anywhere: every live ring candidate failed (HTTP
	// 503, retryable once nodes recover).
	CodeClusterUnreachable = "cluster_unreachable"
	// CodeNodeUnreachable marks a proxied job lookup whose owning ring
	// node did not answer (HTTP 502). The job may still be running
	// there; clients with a member list fail over and resubmit.
	CodeNodeUnreachable = "node_unreachable"
)

// HealthResponse is the wire form of GET /healthz: liveness, occupancy,
// and build info.
type HealthResponse struct {
	// Status is "ok" while serving, "draining" during graceful shutdown.
	Status     string `json:"status"`
	Devices    int    `json:"devices"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Jobs       int    `json:"jobs"`
	// Version is the daemon version; GoVersion the toolchain it was built
	// with.
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// UptimeSeconds is wall-clock time since the server started;
	// ModeledSeconds is the cumulative modeled time of every completed job.
	UptimeSeconds  float64 `json:"uptime_seconds"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	// LastEvent is the RFC3339 wall time of the most recent lifecycle
	// event (empty before the first), a staleness signal for probes.
	LastEvent string `json:"last_event,omitempty"`
	// EventsTotal counts lifecycle events ever recorded.
	EventsTotal int64 `json:"events_total"`
	// Cluster is the ring tier's view of this node (nil on a standalone
	// daemon): node identity, membership, and routing counters.
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// ClusterPeerStatus is one ring member as seen by this node: identity
// plus the strike-based health verdict the router consults.
type ClusterPeerStatus struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
	// State is "up" or "down"; Strikes counts consecutive failures while
	// up, Downs lifetime quarantines (the probe backoff doubles with each).
	State   string `json:"state"`
	Strikes int    `json:"strikes,omitempty"`
	Downs   int    `json:"downs,omitempty"`
	// Left marks a member that announced its departure (decommission);
	// it stays in the configured list but is excluded from routing.
	Left bool `json:"left,omitempty"`
}

// ClusterStatus is the ring tier's self-description, surfaced on
// /healthz and /admin/status.json; its counts are read from the
// registry's cluster series.
// The server package defines it as plain data so internal/cluster can
// depend on server without a cycle: the cluster node injects a snapshot
// callback as RingHooks.Status.
type ClusterStatus struct {
	NodeID int                 `json:"node_id"`
	Addr   string              `json:"addr"`
	VNodes int                 `json:"vnodes"`
	Peers  []ClusterPeerStatus `json:"peers"`

	// Routing counters: submissions forwarded to their ring owner,
	// cross-node cache peeks by outcome, and owner failovers to a ring
	// successor.
	Forwards   int64 `json:"forwards"`
	PeekHits   int64 `json:"peek_hits"`
	PeekMisses int64 `json:"peek_misses"`
	Failovers  int64 `json:"failovers"`

	// NetModeledSeconds and NetMessages account every peek, forward, and
	// proxied response against the α+βn modeled network.
	NetModeledSeconds float64 `json:"net_modeled_seconds"`
	NetMessages       int64   `json:"net_messages"`

	// Replication state: the configured replication factor, results
	// pushed to ring replicas, replica entries stored on behalf of
	// peers, and failover reads answered from a replica instead of
	// recomputed.
	Replicas      int   `json:"replicas,omitempty"`
	ReplicaPushes int64 `json:"replica_pushes"`
	ReplicaStores int64 `json:"replica_stores"`
	ReplicaHits   int64 `json:"replica_hits"`

	// Anti-entropy repair: entries pushed to and pulled from peers by
	// the background digest-summary sweep and read-repair.
	RepairPushed int64 `json:"repair_pushed"`
	RepairPulled int64 `json:"repair_pulled"`
}

// SlotStatus is one device slot row of the ops view: identity, live
// occupancy and cumulative utilization.
type SlotStatus struct {
	Slot        int     `json:"slot"`
	RunningJob  string  `json:"running_job,omitempty"`
	Jobs        int64   `json:"jobs"`
	BusySeconds float64 `json:"busy_seconds"`
}

// TenantStatus is one tenant's row in the ops view: its contract plus
// its lifetime admission counters, read from the per-tenant registry
// series.
type TenantStatus struct {
	Name      string  `json:"name"`
	Weight    float64 `json:"weight"`
	MaxQueued int     `json:"max_queued,omitempty"`
	Queued    int     `json:"queued"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Shed      int64   `json:"shed"`
	Rejected  int64   `json:"rejected"`
	// ServedModeledSeconds is the modeled GPU time actually served to
	// this tenant.
	ServedModeledSeconds float64 `json:"served_modeled_seconds"`
}

// LatencySummary carries interpolated percentiles of one latency
// histogram, in seconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// StatusResponse is the wire form of GET /admin/status.json, the data
// behind the live ops view and the gpmetis -top client.
type StatusResponse struct {
	Status         string  `json:"status"` // "ok" or "draining"
	Version        string  `json:"version"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	ModeledSeconds float64 `json:"modeled_seconds"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCanceled  int64 `json:"jobs_canceled"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsShed      int64 `json:"jobs_shed"`
	JobsCoalesced int64 `json:"jobs_coalesced"`
	JobsDegraded  int64 `json:"jobs_degraded"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	Slots []SlotStatus `json:"slots"`

	// QueueWait, RunSeconds, and TotalSeconds summarize the wall-clock
	// lifecycle histograms (queue wait, device occupancy, admission to
	// terminal state).
	QueueWait    LatencySummary `json:"queue_wait"`
	RunSeconds   LatencySummary `json:"run_seconds"`
	TotalSeconds LatencySummary `json:"total_seconds"`

	// Tenants lists every known tenant's admission state.
	Tenants []TenantStatus `json:"tenants,omitempty"`

	EventsTotal int64  `json:"events_total"`
	LastEvent   string `json:"last_event,omitempty"`

	// Cluster is the ring tier's view of this node (nil standalone).
	Cluster *ClusterStatus `json:"cluster,omitempty"`
}

// NodeTrace is the wire form of GET /internal/trace/{trace_id}: one
// node's spans under a trace, on that node's own clock. Anchor is the
// trace's local origin (job submission); Modeled carries a job's
// modeled-clock Chrome events, microseconds after Anchor, pre-rendered
// with service_parent pointing at this node's run span. A job's own
// trace document renders the same value (see ChromeEvents).
type NodeTrace struct {
	NodeID  string            `json:"node_id"`
	Addr    string            `json:"addr"`
	TraceID string            `json:"trace_id"`
	JobID   string            `json:"job_id,omitempty"`
	Anchor  time.Time         `json:"anchor"`
	Spans   []obs.SpanRecord  `json:"spans"`
	Modeled []obs.ChromeEvent `json:"modeled,omitempty"`
}

// FleetNode is one node's row in the federated fleet view: reachability
// as seen by the fan-out node, the RPC round-trip the status fetch
// took, this node's share of the ring keyspace, and (when reachable)
// its full per-node status snapshot.
type FleetNode struct {
	ID           int     `json:"id"`
	Addr         string  `json:"addr"`
	Self         bool    `json:"self,omitempty"`
	Up           bool    `json:"up"`
	Error        string  `json:"error,omitempty"`
	RTTSeconds   float64 `json:"rtt_seconds,omitempty"`
	OwnershipPct float64 `json:"ownership_pct"`
	// Left marks a decommissioned member still present in peers.json.
	Left   bool            `json:"left,omitempty"`
	Status *StatusResponse `json:"status,omitempty"`
}

// FleetStatus is the wire form of GET /admin/cluster/status.json: one
// fan-out node's merged view of the whole ring.
type FleetStatus struct {
	// Node is the fan-out node answering the query; Replicas the
	// configured replication factor.
	Node     int         `json:"node"`
	Replicas int         `json:"replicas,omitempty"`
	Nodes    []FleetNode `json:"nodes"`
}

// EventsResponse is the wire form of GET /admin/events: the flight
// recorder's retained tail. Dropped counts events that fell off the ring
// before this query.
type EventsResponse struct {
	Total   int64       `json:"total"`
	Dropped int64       `json:"dropped"`
	Events  []obs.Event `json:"events"`
}

// badRequest builds a client-usage error that the HTTP layer maps to 400.
func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// requestError marks client-usage failures (unparsable graph, bad k,
// unknown algorithm) as distinct from server-side faults.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }
