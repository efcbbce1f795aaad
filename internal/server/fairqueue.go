package server

import (
	"container/heap"
	"fmt"
	"sync"

	"gpmetis/internal/obs"
)

// quotaError marks a submission rejected because its tenant already
// holds MaxQueued slots; the HTTP layer maps it to 429 "tenant_quota".
// queued is the tenant's live count, which replay and takeover can
// leave above the limit.
type quotaError struct {
	tenant string
	queued int
	limit  int
}

func (e *quotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota: %d jobs already queued (max_queued %d)", e.tenant, e.queued, e.limit)
}

// fqItem is one queued job plus its start-time-fair-queueing tags.
type fqItem struct {
	job *Job
	// start and finish are the job's virtual-time tags: start is
	// max(queue virtual time, tenant's last finish), finish is start +
	// input size / tenant weight. Dequeue order is ascending finish tag,
	// so a weight-3 tenant's finish tags advance a third as fast and it
	// drains three units of input per unit a weight-1 tenant drains.
	start  float64
	finish float64
	// seq breaks finish-tag ties by arrival order, keeping the schedule
	// deterministic under the seeded chaos harness.
	seq   uint64
	index int // heap position, maintained by the heap interface
}

// fairQueue is a bounded start-time fair queue (SFQ) over per-tenant
// virtual time: the replacement for the FIFO channel. Push computes the
// job's tags from its tenant's weight and the job's input size; Pop
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
	closed bool
}

func newFairQueue(capacity int, reg *obs.Registry) *fairQueue {
	q := &fairQueue{cap: capacity, reg: reg}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits a job, computing its fair-queueing tags. Only fresh
// submissions are held to the tenant quota (a quotaError once the
// tenant holds MaxQueued slots) and may push out queued work: journal
// recovery and coalesced followers re-enqueued after their leader
// aborted were accepted once and cannot be lost to a quota, nor may
// they evict anyone. A fresh push that meets a full queue evicts one
// over-share job (see pushOutLocked) and returns it as victim, for the
// caller to fail outside the lock; with no victim to take it fails
// with ErrQueueFull.
func (q *fairQueue) Push(j *Job, fresh bool) (victim *Job, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueFull
	}
	t := j.tenant
	overQuota := fresh && t != nil && t.cfg.MaxQueued > 0 && t.queued >= t.cfg.MaxQueued
	if len(q.heap) >= q.cap {
		if !fresh || overQuota {
			return nil, ErrQueueFull
		}
		if victim = q.pushOutLocked(t); victim == nil {
			return nil, ErrQueueFull
		}
	} else if overQuota {
		return nil, &quotaError{tenant: t.name, queued: t.queued, limit: t.cfg.MaxQueued}
	}
	weight, last := 1.0, 0.0
	if t != nil {
		weight, last = t.cfg.Weight, t.lastFinish
	}
	start := q.vtime
	if last > start {
		start = last
	}
	it := &fqItem{job: j, start: start, finish: start + j.cost/weight, seq: q.seq}
	q.seq++
	if t != nil {
		t.lastFinish = it.finish
		t.queued++
		q.reg.SetWith("tenant.queued", t.labels, float64(t.queued))
	}
	heap.Push(&q.heap, it)
	q.cond.Signal()
	return victim, nil
}

// pushOutLocked is the shed rule, applied only where shedding matters:
// a full queue that would otherwise refuse the pusher. A tenant's share
// is max(1, cap·weight/ΣW), with ΣW over the tenants holding queued work
// plus the pusher's. If the pusher's tenant holds fewer jobs than its
// share, one job is evicted from the lowest-weight tenant (name breaks
// ties) holding more than its share: its least-entitled job, the one
// with the latest finish tag (seq breaks ties). Tenants within their
// share are never evicted.
//
// The victim was never served, so virtual time does not advance to its
// start tag, and its tenant's last finish tag rolls back when the victim
// held it. Advancing would push the pusher's start tag past every job
// still queued ahead of the victim.
func (q *fairQueue) pushOutLocked(pusher *tenantState) *Job {
	if pusher == nil {
		return nil
	}
	sumW := pusher.cfg.Weight
	seen := map[*tenantState]bool{pusher: true}
	for _, it := range q.heap {
		if t := it.job.tenant; t != nil && !seen[t] {
			seen[t] = true
			sumW += t.cfg.Weight
		}
	}
	share := func(t *tenantState) int {
		return max(1, int(float64(q.cap)*t.cfg.Weight/sumW))
	}
	if pusher.queued >= share(pusher) {
		return nil
	}
	var v *fqItem
	for _, it := range q.heap {
		if t := it.job.tenant; t != nil && t.queued > share(t) && (v == nil || evictsBefore(it, v)) {
			v = it
		}
	}
	if v == nil {
		return nil
	}
	heap.Remove(&q.heap, v.index)
	q.leftLocked(v)
	if t := v.job.tenant; t.lastFinish == v.finish {
		t.lastFinish = v.start
	}
	return v.job
}

// evictsBefore orders push-out candidates: lower tenant weight first,
// then tenant name, then, within a tenant, later finish tag and later
// arrival.
func evictsBefore(a, b *fqItem) bool {
	ta, tb := a.job.tenant, b.job.tenant
	if ta != tb {
		if ta.cfg.Weight != tb.cfg.Weight {
			return ta.cfg.Weight < tb.cfg.Weight
		}
		return ta.name < tb.name
	}
	if a.finish != b.finish {
		return a.finish > b.finish
	}
	return a.seq > b.seq
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

// dequeuedLocked applies the accounting shared by Pop and Remove:
// virtual time advances to the departed item's start tag, and the item
// leaves the queue's books.
func (q *fairQueue) dequeuedLocked(it *fqItem) {
	if it.start > q.vtime {
		q.vtime = it.start
	}
	q.leftLocked(it)
}

// leftLocked takes a departed item off its tenant's occupancy.
func (q *fairQueue) leftLocked(it *fqItem) {
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
