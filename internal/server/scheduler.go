package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gpmetis"
	"gpmetis/internal/fault"
	"gpmetis/internal/obs"
)

// ErrQueueFull is the typed admission-control rejection: the bounded job
// queue is at capacity and the submission was refused. The HTTP layer
// maps it to 429 with code "overloaded"; direct callers retry later.
var ErrQueueFull = errors.New("server: job queue full")

// pool is the device-pool scheduler: one worker goroutine per modeled
// GPU slot, each owning a private clone of the machine model. A slot
// runs one job at a time, so jobs never share a modeled device — the
// modeled-clock isolation invariant — while up to len(machines) jobs
// progress concurrently in wall-clock time.
type pool struct {
	s        *Server
	machines []*gpmetis.Machine

	// slotRunning is the job each slot is running right now ("" idle),
	// for the ops view. Per-slot utilization lives in the registry as
	// slot_busy_seconds and slot_jobs, labeled {slot}.
	statMu      sync.Mutex
	slotRunning []string
}

func newPool(s *Server, devices int, base *gpmetis.Machine) *pool {
	p := &pool{s: s}
	for i := 0; i < devices; i++ {
		m := *base // private clone per slot: no cross-job model sharing
		p.machines = append(p.machines, &m)
		for _, name := range []string{"slot_busy_seconds", "slot_jobs"} {
			s.reg.AddWith(name, slotLabels(i), 0)
		}
	}
	p.slotRunning = make([]string, devices)
	return p
}

// slotLabels is the label set of one slot's series.
func slotLabels(slot int) []obs.Label {
	return []obs.Label{{Key: "slot", Value: strconv.Itoa(slot)}}
}

// slotOccupancy snapshots which job each slot is running ("" idle).
func (p *pool) slotOccupancy() []string {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return append([]string(nil), p.slotRunning...)
}

// start launches the workers; they exit when ctx is canceled. The fair
// queue cannot select on a context, so a watcher goroutine closes it on
// cancellation, waking every blocked Pop.
func (p *pool) start(ctx context.Context) {
	p.s.wg.Add(1)
	go func() {
		defer p.s.wg.Done()
		<-ctx.Done()
		p.s.fq.Close()
	}()
	for i := range p.machines {
		p.s.wg.Add(1)
		go func(slot int) {
			defer p.s.wg.Done()
			p.worker(slot)
		}(i)
	}
}

// worker drains the queue: pop, discard if the job died while queued,
// otherwise run it on this slot's private machine. The slot is freed —
// by returning to the top of the loop — on every outcome, including
// cancellation and failure, so one misbehaving job can never leak a
// device.
func (p *pool) worker(slot int) {
	for {
		job := p.s.fq.Pop()
		if job == nil {
			return // queue closed: shutdown
		}
		p.s.reg.Add("queue.depth", -1)
		if hook := p.s.beforeRun; hook != nil {
			hook(job)
		}
		if err := job.ctx.Err(); err != nil {
			p.finishDead(job, err)
			continue
		}
		pop := time.Now()
		wait := pop.Sub(job.queuedAt).Seconds()
		p.s.reg.Add("queue.wait_seconds", wait)
		p.s.reg.Observe("job.queue_seconds", wait)
		job.addLifeSpan(lifeQueueWait, job.queuedAt, pop, nil)
		job.markRunning(slot, wait)
		p.s.event(obs.EvScheduled, job, slot, "")
		p.s.jlog(job).Info("job scheduled", "slot", slot, "wait_seconds", wait)
		p.s.journalAppend(Record{Type: RecRunning, ID: job.ID})
		p.s.reg.Add("devices.busy", 1)
		p.statMu.Lock()
		p.slotRunning[slot] = job.ID
		p.statMu.Unlock()
		t0 := time.Now()
		job.addLifeSpan(lifeSchedule, pop, t0, map[string]any{"slot": slot})
		job.markRunStart(t0)
		p.s.event(obs.EvRunStart, job, slot, "")
		p.runJob(job, slot)
		t1 := time.Now()
		ran := t1.Sub(t0).Seconds()
		job.addLifeSpan(lifeRun, t0, t1, map[string]any{
			"slot": slot, "outcome": job.Status().State,
		})
		p.s.reg.Add("devices.busy", -1)
		p.s.reg.Observe("job.run_seconds", ran)
		p.s.reg.AddWith("slot_busy_seconds", slotLabels(slot), ran)
		p.s.reg.AddWith("slot_jobs", slotLabels(slot), 1)
		p.statMu.Lock()
		p.slotRunning[slot] = ""
		p.statMu.Unlock()
	}
}

// finishDead retires a job whose context expired before it ran (or, via
// runJob, one whose context expired while it ran).
func (p *pool) finishDead(job *Job, cause error) {
	if errors.Is(cause, context.DeadlineExceeded) {
		p.s.reg.Add("jobs.failed", 1)
		job.finish(StateFailed, nil, "deadline exceeded while queued")
		return
	}
	p.s.reg.Add("jobs.canceled", 1)
	job.finish(StateCanceled, nil, "canceled while queued")
}

// checkpointPath returns where a job's crash-recovery snapshot lives,
// "" when checkpointing is off or the job's shape is not resumable
// (only single-device GP-metis runs checkpoint).
func (p *pool) checkpointPath(job *Job) string {
	if p.s.cfg.CheckpointDir == "" || job.algo != gpmetis.GPMetis || job.opts.Devices > 1 {
		return ""
	}
	return filepath.Join(p.s.cfg.CheckpointDir, job.ID+".ckpt")
}

// runJob executes one job on this slot. The run gets its own tracer,
// its own machine clone, and a Cancel hook bound to the job context, so
// a DELETE or a deadline stops it at the next level boundary. When
// checkpointing is configured the run snapshots at every boundary, and
// a job carrying a recovery checkpoint resumes from it.
func (p *pool) runJob(job *Job, slot int) {
	// Every exit from runJob leaves the job terminal, so its snapshot is
	// dead weight on all paths; recovery must not see it.
	defer func() {
		if path := p.checkpointPath(job); path != "" {
			os.Remove(path)
		}
	}()
	g := job.graph()
	tracer := gpmetis.NewTracer()
	job.setTracer(tracer)
	o := job.opts
	o.Tracer = tracer
	o.Machine = p.machines[slot]
	o.Cancel = job.ctx.Err

	if path := p.checkpointPath(job); path != "" {
		warned := false
		o.Checkpoint = func(c *gpmetis.Checkpoint) error {
			if err := gpmetis.WriteCheckpointFile(path, c); err != nil {
				// Durability degradation: keep computing, stop promising
				// resumability, say so once.
				p.s.reg.Add("checkpoint.errors", 1)
				if !warned {
					warned = true
					p.s.reg.Set("checkpoint.degraded", 1)
					p.s.jlog(job).Warn("checkpointing degraded; job keeps running without snapshots",
						"error", err.Error())
				}
				return nil
			}
			p.s.reg.Add("checkpoint.writes", 1)
			return nil
		}
		if job.resume != nil {
			o.Resume = job.resume
			job.mu.Lock()
			job.resumed = true
			job.mu.Unlock()
		}
	}

	res, err := gpmetis.Partition(g, job.k, o)
	if err != nil && o.Resume != nil &&
		(errors.Is(err, gpmetis.ErrCheckpointMismatch) || errors.Is(err, gpmetis.ErrCheckpointCorrupt)) {
		// A stale or damaged snapshot must never lose the job: drop it
		// and run from scratch.
		p.s.reg.Add("checkpoint.rejected", 1)
		o.Resume = nil
		job.mu.Lock()
		job.resumed = false
		job.mu.Unlock()
		res, err = gpmetis.Partition(g, job.k, o)
	}
	switch {
	case err == nil:
		if cerr := job.ctx.Err(); cerr != nil {
			// The run completed despite an expired context (algorithms
			// without boundary polling, or a cancel racing the last
			// level). The submitter canceled this job; its result must
			// not enter the cache — a later identical submit is a fresh
			// computation, not a hit off a canceled job.
			p.finishDead(job, cerr)
			return
		}
		jr := &JobResult{
			Part:           res.Part,
			EdgeCut:        res.EdgeCut,
			Imbalance:      gpmetis.Imbalance(g, res.Part, job.k),
			ModeledSeconds: res.ModeledSeconds,
			Degraded:       res.Degraded,
			DegradedReason: res.DegradedReason,
			FaultEvents:    len(res.FaultEvents),
		}
		p.s.reg.Add("jobs.completed", 1)
		p.s.reg.Add("modeled.seconds", res.ModeledSeconds)
		p.s.reg.Observe("job.modeled_seconds", res.ModeledSeconds)
		if res.Degraded {
			p.s.reg.Add("jobs.degraded", 1)
		}
		if job.Status().Resumed {
			p.s.reg.Add("jobs.resumed_completed", 1)
		}
		job.setProfile(res.Profile)
		if job.key != "" {
			p.s.cache.Put(job.key, &CachedResult{Result: *jr, Tracer: tracer, Profile: res.Profile})
		}
		// Charge the tenant's served-cost account before the job turns
		// done, so whoever sees it done also sees the charge. Only genuine
		// runs are charged: cache hits and coalesced followers cost nothing.
		p.s.tenantAdd(job.tenant, "tenant.served_modeled_seconds", res.ModeledSeconds)
		job.finish(StateDone, jr, "")
	case errors.Is(err, gpmetis.ErrCanceled):
		if errors.Is(job.ctx.Err(), context.DeadlineExceeded) {
			p.s.reg.Add("jobs.failed", 1)
			job.finish(StateFailed, nil, fmt.Sprintf("deadline exceeded: %v", err))
			return
		}
		p.s.reg.Add("jobs.canceled", 1)
		job.finish(StateCanceled, nil, err.Error())
	default:
		// A device loss comes from the request's own fault scenario. The
		// slot's machine model keeps no device state between runs, so the
		// loss fails only this job and the slot takes the next one.
		var lost *fault.DeviceLost
		if errors.As(err, &lost) {
			p.s.reg.Add("devices.faults", 1)
		}
		p.s.reg.Add("jobs.failed", 1)
		job.finish(StateFailed, nil, err.Error())
	}
}
