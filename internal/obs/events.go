package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Lifecycle event types recorded by the serving subsystem. They mirror
// the admission → queue → schedule → run → journal path of one job plus
// the server-scoped transitions an operator reconstructs an incident
// from (drain, recovery, journal degradation).
const (
	EvAdmit         = "admit"
	EvCacheHit      = "cache_hit"
	EvCoalesced     = "coalesced"
	EvScheduled     = "scheduled"
	EvRunStart      = "run_start"
	EvDone          = "done"
	EvFailed        = "failed"
	EvCanceled      = "canceled"
	EvJournalAppend = "journal_append"
	EvRejected      = "rejected"
	EvDrainBegin    = "drain_begin"
	EvDrainEnd      = "drain_end"
	EvRecovered     = "recovered"
	// Overload-control events: a queued job pushed out of the full queue
	// by another tenant's submission, and a queued job whose deadline
	// expired eagerly before any worker popped it.
	EvShed         = "shed"
	EvQueueExpired = "queue_expired"
	// Cluster-tier events: a submission forwarded to its ring owner, a
	// cross-node cache peek answered remotely, an owner failure routed to
	// a ring successor, and peer health transitions as seen by this node.
	EvClusterForward  = "cluster_forward"
	EvClusterPeekHit  = "cluster_peek_hit"
	EvClusterFailover = "cluster_failover"
	EvNodeDown        = "node_down"
	EvNodeUp          = "node_up"
	// Replication-tier events: a result pushed to a ring replica, a
	// failover read answered from a replica instead of recomputed, an
	// anti-entropy repair transfer, and membership changes (decommission,
	// leave/join announcements, a peers.json reload).
	EvClusterReplicate    = "cluster_replicate"
	EvClusterReplicaHit   = "cluster_replica_hit"
	EvClusterRepair       = "cluster_repair"
	EvClusterDecommission = "cluster_decommission"
	EvClusterMembership   = "cluster_membership"
)

// Event is one lifecycle record in the flight recorder: what happened,
// to which job, when (wall clock), and a short free-form detail. Seq is
// assigned by the ring and is strictly increasing for the life of the
// process, so gaps in a dump reveal how much history the ring evicted.
type Event struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	Job    string    `json:"job_id,omitempty"`
	Trace  string    `json:"trace_id,omitempty"`
	Node   string    `json:"node_id,omitempty"`
	Slot   int       `json:"slot,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// EventRing is the flight recorder: a fixed-size ring of the most recent
// lifecycle events, cheap enough to run always and queryable after the
// fact (GET /admin/events, the SIGQUIT dump). All methods are safe for
// concurrent use and no-ops on a nil receiver.
type EventRing struct {
	mu    sync.Mutex
	buf   []Event
	total int64 // events ever appended; Seq source
	last  time.Time
}

// NewEventRing returns a recorder retaining the last capacity events
// (minimum 1).
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, 0, capacity)}
}

// Append stamps e with the next sequence number and the current time
// (when unset) and records it, evicting the oldest event when full. The
// stamped event is returned.
func (r *EventRing) Append(e Event) Event {
	if r == nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	e.Seq = r.total
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.last = e.Time
	if len(r.buf) == cap(r.buf) {
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = e
	} else {
		r.buf = append(r.buf, e)
	}
	return e
}

// Snapshot returns the retained events, oldest first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.buf...)
}

// Total returns how many events were ever appended (≥ len(Snapshot())).
func (r *EventRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// LastTime returns the wall time of the most recent event (zero when the
// ring is empty), the liveness signal /healthz reports.
func (r *EventRing) LastTime() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Dump writes the retained events as indented JSON — the post-mortem
// artifact the daemon emits on SIGQUIT.
func (r *EventRing) Dump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Total  int64   `json:"total"`
		Events []Event `json:"events"`
	}{Total: r.Total(), Events: r.Snapshot()})
}
