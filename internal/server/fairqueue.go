package server

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"gpmetis/internal/obs"
)

// quotaError marks a submission rejected because its tenant already
// holds MaxQueued slots; the HTTP layer maps it to 429 "tenant_quota".
type quotaError struct {
	tenant string
	limit  int
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota: %d jobs already queued (max_queued %d)", e.tenant, e.limit, e.limit)
}

// fqItem is one queued job plus its start-time-fair-queueing tags.
type fqItem struct {
	job *Job
	// start and finish are the job's virtual-time tags: start is
	// max(queue virtual time, tenant's last finish), finish is start +
	// estimated modeled cost / tenant weight. Dequeue order is ascending
	// finish tag, so a weight-3 tenant's finish tags advance a third as
	// fast and it drains three units of modeled work per unit a weight-1
	// tenant drains.
	start  float64
	finish float64
	// seq breaks finish-tag ties by arrival order, keeping the schedule
	// deterministic under the seeded chaos harness.
	seq uint64
	// wallCost is the wall-second estimate captured at push time; the sum
	// over the queue drives the dynamic Retry-After and deadline-aware
	// admission.
	wallCost float64
	index    int // heap position, maintained by the heap interface
}

// fairQueue is a bounded start-time fair queue (SFQ) over per-tenant
// virtual time: the replacement for the FIFO channel. Push computes the
// job's tags from its tenant's weight and estimated modeled cost; Pop
// blocks for the minimum finish tag. All tenant scheduling state
// (lastFinish, queued) is guarded by mu; each change of a tenant's
// occupancy is mirrored into its tenant.queued series in reg.
type fairQueue struct {
	reg    *obs.Registry
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	heap   fqHeap
	vtime  float64 // queue virtual time: max start tag ever dequeued
	seq    uint64
	wall   float64 // sum of wallCost over queued items
	closed bool
}

func newFairQueue(capacity int, reg *obs.Registry) *fairQueue {
	q := &fairQueue{cap: capacity, reg: reg}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits a job, computing its fair-queueing tags. It fails with
// ErrQueueFull at capacity and, when enforceQuota is set, with a
// quotaError once the tenant holds MaxQueued slots. Re-admissions that
// were already accepted once (journal recovery, coalesced followers
// re-enqueued after their leader aborted) pass enforceQuota=false:
// accepted jobs cannot be lost to a quota.
func (q *fairQueue) Push(j *Job, enforceQuota bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueFull
	}
	if len(q.heap) >= q.cap {
		return ErrQueueFull
	}
	t := j.tenant
	if enforceQuota && t != nil && t.cfg.MaxQueued > 0 && t.queued >= t.cfg.MaxQueued {
		return &quotaError{tenant: t.name, limit: t.cfg.MaxQueued}
	}
	weight, last := 1.0, 0.0
	if t != nil {
		weight, last = t.cfg.Weight, t.lastFinish
	}
	start := q.vtime
	if last > start {
		start = last
	}
	it := &fqItem{
		job:      j,
		start:    start,
		finish:   start + j.estModeled/weight,
		seq:      q.seq,
		wallCost: j.estWall,
	}
	q.seq++
	if t != nil {
		t.lastFinish = it.finish
		t.queued++
		q.reg.SetWith("tenant.queued", t.labels, float64(t.queued))
	}
	heap.Push(&q.heap, it)
	q.wall += it.wallCost
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available and returns the one with the
// minimum finish tag, or nil once the queue is closed and drained.
func (q *fairQueue) Pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil
	}
	it := heap.Pop(&q.heap).(*fqItem)
	q.dequeuedLocked(it)
	return it.job
}

// dequeuedLocked applies the accounting shared by Pop, Remove, and
// shedding: virtual time advances to the departed item's start tag and
// the tenant's occupancy drops.
func (q *fairQueue) dequeuedLocked(it *fqItem) {
	if it.start > q.vtime {
		q.vtime = it.start
	}
	q.wall -= it.wallCost
	if t := it.job.tenant; t != nil {
		t.queued--
		q.reg.SetWith("tenant.queued", t.labels, float64(t.queued))
	}
}

// Remove pulls a specific job out of the queue (eager deadline expiry,
// cancellation). It reports false when the job is no longer queued —
// a worker already popped it and owns its outcome.
func (q *fairQueue) Remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.heap {
		if it.job == j {
			heap.Remove(&q.heap, it.index)
			q.dequeuedLocked(it)
			return true
		}
	}
	return false
}

// Close wakes every blocked Pop; queued jobs already pushed still drain.
func (q *fairQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the live queue depth.
func (q *fairQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// stats reports the depth and the summed wall-second estimate of the
// queued work — the numerator of the dynamic Retry-After.
func (q *fairQueue) stats() (depth int, wallSeconds float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap), q.wall
}

// shedOverShare implements the brownout shed rule: remove queued jobs
// only from tenants holding more than their weighted fair share of the
// queue's capacity (share ∝ weight / Σ weights over tenants with queued
// work, floor 1), trimming each such tenant down to its share. Victims
// come from the lowest-weight tenants first and, within a tenant, the
// least-entitled jobs (largest finish tag) first. Tenants inside their
// share are never shed — the ladder escalates to degrade instead.
func (q *fairQueue) shedOverShare() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	byTenant := map[*tenantState][]*fqItem{}
	sumW := 0.0
	for _, it := range q.heap {
		t := it.job.tenant
		if t == nil {
			continue
		}
		if _, seen := byTenant[t]; !seen {
			sumW += t.cfg.Weight
		}
		byTenant[t] = append(byTenant[t], it)
	}
	if sumW == 0 {
		return nil
	}
	// Deterministic tenant order: weight ascending, then name.
	tenants := make([]*tenantState, 0, len(byTenant))
	for t := range byTenant {
		tenants = append(tenants, t)
	}
	sort.Slice(tenants, func(i, j int) bool {
		if tenants[i].cfg.Weight != tenants[j].cfg.Weight {
			return tenants[i].cfg.Weight < tenants[j].cfg.Weight
		}
		return tenants[i].name < tenants[j].name
	})
	var victims []*Job
	for _, t := range tenants {
		share := int(float64(q.cap) * t.cfg.Weight / sumW)
		if share < 1 {
			share = 1
		}
		items := byTenant[t]
		excess := len(items) - share
		if excess <= 0 {
			continue
		}
		sort.Slice(items, func(i, j int) bool {
			if items[i].finish != items[j].finish {
				return items[i].finish > items[j].finish
			}
			return items[i].seq > items[j].seq
		})
		for _, it := range items[:excess] {
			heap.Remove(&q.heap, it.index)
			q.dequeuedLocked(it)
			victims = append(victims, it.job)
		}
	}
	return victims
}

// fqHeap is the min-heap over finish tags backing fairQueue.
type fqHeap []*fqItem

func (h fqHeap) Len() int { return len(h) }
func (h fqHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h fqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *fqHeap) Push(x any) {
	it := x.(*fqItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *fqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
