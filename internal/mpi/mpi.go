// Package mpi is the message-passing substrate the ParMetis-style
// distributed partitioner runs on: ranks are goroutines, messages are
// channel sends, and time is a per-rank virtual clock advanced by an
// alpha-beta network model (see DESIGN.md §1).
//
// Every rank owns a virtual clock. Local computation advances it via
// Charge; a message stamps the sender's clock and the receiver's clock
// becomes max(receiver, senderStamp + alpha + bytes/bandwidth), which is
// the standard LogP-style causal-time simulation. Barrier synchronizes
// all clocks to their max. The result of a Run is therefore a modeled
// parallel runtime that is deterministic regardless of how the host
// schedules the goroutines.
package mpi

import (
	"errors"
	"fmt"
	"sync"

	"gpmetis/internal/fault"
	"gpmetis/internal/perfmodel"
)

// ErrRankFailure marks a job aborted because a rank died (fail-stop MPI
// semantics: the communicator does not survive a member). Test with
// errors.Is.
var ErrRankFailure = errors.New("mpi: rank failure")

// message carries an int payload plus the sender's virtual send time.
type message struct {
	data     []int
	sentAt   float64
	transfer float64
}

// Comm is one communicator over nprocs ranks.
type Comm struct {
	m     *perfmodel.Machine
	size  int
	chans [][]chan message // chans[src][dst]

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierN    int
	barrierGen  int
	barrierMax  float64 // max clock among the ranks arrived at the open barrier
	// barrierRelease is the clock the last completed barrier released its
	// ranks at. A waiter reads it, not barrierMax: ranks released before
	// it wakes may already be raising barrierMax for the next barrier,
	// which cannot complete without the waiter.
	barrierRelease float64

	// Abort state: the first failing rank records its error and closes
	// abortCh; every rank blocked in Send/Recv/Barrier wakes up and
	// unwinds, so a dead rank can never deadlock the survivors.
	abortOnce sync.Once
	abortCh   chan struct{}
	abortErr  error
	aborted   bool // guarded by barrierMu, for the barrier wait loop
}

// abortPanic unwinds a rank's goroutine after the job aborted; Run
// recognizes it and reports the recorded abort error instead of a panic.
type abortPanic struct{}

func (c *Comm) abort(err error) {
	c.abortOnce.Do(func() {
		c.abortErr = err
		c.barrierMu.Lock()
		c.aborted = true
		c.barrierMu.Unlock()
		close(c.abortCh)
		c.barrierCond.Broadcast()
	})
}

// Fail kills the calling rank with err, aborting the whole job: the
// communicator does not survive a member, so every other rank unwinds at
// its next communication call.
func (r *Rank) Fail(err error) {
	r.comm.abort(err)
	panic(abortPanic{})
}

// Rank is one process's handle to the communicator. Each Rank is used
// only by its own goroutine.
type Rank struct {
	comm  *Comm
	id    int
	clock float64
}

// msgOverheadBytes models per-message envelope/header cost.
const msgOverheadBytes = 64

// intBytes is the wire size of one int payload element (the partitioners
// exchange 32-bit vertex ids and weights).
const intBytes = 4

// Run executes body on nprocs ranks and returns the modeled parallel
// runtime: the maximum final virtual clock across ranks. A panic in any
// rank is recovered and returned as an error.
func Run(m *perfmodel.Machine, nprocs int, body func(r *Rank)) (float64, error) {
	return runRanks(m, nprocs, nil, body)
}

// RunInjected is Run under fault injection: before executing body, each
// rank p evaluates the fault.SiteMPIRank site with 1-based sequence p+1
// (so at=2 deterministically kills rank 1, and p=0.1 gives each rank an
// independent seeded coin). A killed rank fails the whole job with an
// error wrapping ErrRankFailure — fail-stop semantics, no recovery. A nil
// injector makes RunInjected identical to Run.
func RunInjected(m *perfmodel.Machine, nprocs int, inj *fault.Injector, body func(r *Rank)) (float64, error) {
	return runRanks(m, nprocs, inj, body)
}

func runRanks(m *perfmodel.Machine, nprocs int, inj *fault.Injector, body func(r *Rank)) (float64, error) {
	if nprocs <= 0 {
		return 0, fmt.Errorf("mpi: nprocs must be positive, got %d", nprocs)
	}
	c := &Comm{m: m, size: nprocs, abortCh: make(chan struct{})}
	c.barrierCond = sync.NewCond(&c.barrierMu)
	c.chans = make([][]chan message, nprocs)
	for s := range c.chans {
		c.chans[s] = make([]chan message, nprocs)
		for d := range c.chans[s] {
			// Buffered so simple exchange patterns cannot deadlock.
			c.chans[s][d] = make(chan message, 4)
		}
	}
	// Rank-death coins are flipped serially before any goroutine starts,
	// so when several ranks are doomed the recorded failure is always the
	// lowest-numbered one — the reported error is deterministic even
	// though goroutine scheduling is not.
	doomed := make([]error, nprocs)
	for p := 0; p < nprocs; p++ {
		if fe := inj.CheckAt(fault.SiteMPIRank, int64(p+1)); fe != nil {
			doomed[p] = fmt.Errorf("%w: rank %d died: %w", ErrRankFailure, p, fe)
		}
	}
	for p := 0; p < nprocs; p++ {
		if doomed[p] != nil {
			c.abort(doomed[p])
			break
		}
	}
	clocks := make([]float64, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for p := 0; p < nprocs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortPanic); ok {
						return // job-level abort, reported via abortErr
					}
					errs[p] = fmt.Errorf("mpi: rank %d panicked: %v", p, r)
				}
			}()
			r := &Rank{comm: c, id: p}
			if doomed[p] != nil {
				panic(abortPanic{})
			}
			body(r)
			clocks[p] = r.clock
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if c.abortErr != nil {
		return 0, c.abortErr
	}
	var max float64
	for _, t := range clocks {
		if t > max {
			max = t
		}
	}
	return max, nil
}

// ID returns the rank number in [0, Size()).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the communicator.
func (r *Rank) Size() int { return r.comm.size }

// Clock returns the rank's current virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Charge advances the rank's clock by the modeled duration of local work.
func (r *Rank) Charge(c perfmodel.ThreadCost) {
	r.clock += c.Seconds(r.comm.m)
}

// ChargeSeconds advances the rank's clock directly.
func (r *Rank) ChargeSeconds(s float64) {
	if s > 0 {
		r.clock += s
	}
}

// Send transmits data to rank dst. The payload slice is copied, so the
// caller may reuse it. Send is asynchronous up to the channel buffer,
// like a small-message MPI_Send.
func (r *Rank) Send(dst int, data []int) {
	if dst < 0 || dst >= r.comm.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	bytes := float64(len(data)*intBytes + msgOverheadBytes)
	cp := make([]int, len(data))
	copy(cp, data)
	// The sender pays the injection overhead (alpha); the wire time is
	// carried on the message for the receiver's causal clock.
	r.clock += r.comm.m.Net.LatencySec
	select {
	case r.comm.chans[r.id][dst] <- message{
		data:     cp,
		sentAt:   r.clock,
		transfer: float64(bytes) / r.comm.m.Net.BytesPerSec,
	}:
	case <-r.comm.abortCh:
		panic(abortPanic{})
	}
}

// Recv blocks for the next message from rank src and returns its payload,
// advancing the virtual clock causally.
func (r *Rank) Recv(src int) []int {
	if src < 0 || src >= r.comm.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", src))
	}
	var msg message
	select {
	case msg = <-r.comm.chans[src][r.id]:
	case <-r.comm.abortCh:
		panic(abortPanic{})
	}
	arrive := msg.sentAt + msg.transfer
	if arrive > r.clock {
		r.clock = arrive
	}
	return msg.data
}

// Barrier blocks until all ranks arrive and synchronizes every clock to
// the maximum, plus one network latency for the release.
func (r *Rank) Barrier() {
	c := r.comm
	c.barrierMu.Lock()
	if c.aborted {
		c.barrierMu.Unlock()
		panic(abortPanic{})
	}
	gen := c.barrierGen
	if r.clock > c.barrierMax {
		c.barrierMax = r.clock
	}
	c.barrierN++
	if c.barrierN == c.size {
		c.barrierN = 0
		c.barrierGen++
		c.barrierRelease = c.barrierMax + c.m.Net.LatencySec
		c.barrierMax = 0
		c.barrierCond.Broadcast()
	} else {
		for gen == c.barrierGen && !c.aborted {
			c.barrierCond.Wait()
		}
		if c.aborted {
			c.barrierMu.Unlock()
			panic(abortPanic{})
		}
	}
	r.clock = c.barrierRelease
	c.barrierMu.Unlock()
}

// AllToAll sends out[d] to every rank d and returns in[s] received from
// every rank s (out[r.ID()] is delivered to itself without network cost).
func (r *Rank) AllToAll(out [][]int) [][]int {
	if len(out) != r.comm.size {
		panic(fmt.Sprintf("mpi: AllToAll needs %d buffers, got %d", r.comm.size, len(out)))
	}
	in := make([][]int, r.comm.size)
	// Round-robin pairing keeps at most one message in flight per pair.
	for round := 1; round < r.comm.size; round++ {
		dst := (r.id + round) % r.comm.size
		src := (r.id - round + r.comm.size) % r.comm.size
		r.Send(dst, out[dst])
		in[src] = r.Recv(src)
	}
	self := make([]int, len(out[r.id]))
	copy(self, out[r.id])
	in[r.id] = self
	r.Barrier()
	return in
}

// AllGather returns every rank's data slice, indexed by rank.
func (r *Rank) AllGather(data []int) [][]int {
	out := make([][]int, r.comm.size)
	for d := range out {
		out[d] = data
	}
	return r.AllToAll(out)
}

// AllReduceSum returns the sum of x across all ranks.
func (r *Rank) AllReduceSum(x int) int {
	parts := r.AllGather([]int{x})
	var s int
	for _, p := range parts {
		s += p[0]
	}
	return s
}

// AllReduceMax returns the maximum of x across all ranks.
func (r *Rank) AllReduceMax(x int) int {
	parts := r.AllGather([]int{x})
	m := parts[0][0]
	for _, p := range parts {
		if p[0] > m {
			m = p[0]
		}
	}
	return m
}

// Bcast distributes data from root to all ranks and returns each rank's
// copy.
func (r *Rank) Bcast(root int, data []int) []int {
	if root < 0 || root >= r.comm.size {
		panic(fmt.Sprintf("mpi: Bcast from invalid root %d", root))
	}
	if r.comm.size == 1 {
		cp := make([]int, len(data))
		copy(cp, data)
		return cp
	}
	if r.id == root {
		for d := 0; d < r.comm.size; d++ {
			if d != root {
				r.Send(d, data)
			}
		}
		r.Barrier()
		cp := make([]int, len(data))
		copy(cp, data)
		return cp
	}
	got := r.Recv(root)
	r.Barrier()
	return got
}
