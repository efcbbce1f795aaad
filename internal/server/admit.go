package server

import (
	"context"
	"errors"
	"time"
)

// Admission outcomes: the admit span's outcome attribute.
const (
	admitHit       = "cache-hit"
	admitCoalesced = "coalesced"
	admitQueued    = "queued"
)

// admit is the one admission step behind Submit, journal replay and a
// coalesced follower's takeover. Under one s.mu hold it looks for a live
// in-flight leader of the job's key, then for a cached result, and on a
// miss claims leadership of the key. The in-flight index comes first
// because a leader leaves it only after its result is in the cache: a
// job that finds no live leader finds the result if there is one. Read
// the other way round, a job could miss the cache just before a leader
// stored its result, find the index already cleared, and run the key a
// second time.
//
// A hit finishes the job from the cache. A live leader makes the job its
// coalesced follower. A miss queues the job; the tenant quota and
// push-out at a full queue apply only to fresh submissions, since
// replay and takeover re-admit work that was accepted once. A job
// pushed out to make room is shed here, outside the queue lock. A
// rejected job gives its claim back and has its context released. The
// caller indexes an admitted job and watches it to its end.
func (s *Server) admit(j *Job, fresh bool) (outcome string, leader *Job, err error) {
	if j.key != "" {
		t0 := time.Now()
		var hit *CachedResult
		s.mu.Lock()
		if l := s.inflight[j.key]; l != nil && !l.terminal() {
			leader = l
		} else if hit, _ = s.cache.Get(j.key); hit == nil {
			s.inflight[j.key] = j
		}
		s.mu.Unlock()
		j.addLifeSpan(lifeCacheLook, t0, time.Now(), map[string]any{"hit": hit != nil})
		switch {
		case hit != nil:
			j.finishCached(hit)
			return admitHit, nil, nil
		case leader != nil:
			j.mu.Lock()
			first := !j.coalesced
			j.coalesced = true
			j.mu.Unlock()
			if first {
				s.reg.Add("jobs.coalesced", 1)
			}
			s.wg.Add(1)
			go func() { defer s.wg.Done(); s.follow(j, leader) }()
			return admitCoalesced, leader, nil
		}
	}

	j.queuedAt = time.Now()
	victim, err := s.fq.Push(j, fresh)
	if err != nil {
		s.release(j)
		j.cancel()
		return "", nil, err
	}
	s.reg.Add("queue.depth", 1)
	s.watchQueued(j)
	if victim != nil {
		s.shed(victim, j.tenant)
	}
	return admitQueued, nil, nil
}

// release gives up j's single-flight leadership if it holds it: on a
// rejected admission, and once the job is terminal (its result, if any,
// already in the cache).
func (s *Server) release(j *Job) {
	if j.key == "" {
		return
	}
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// follow waits out a coalesced follower's leader. The follower adopts
// the leader's result on success; any other outcome must not bind it, so
// it is admitted again and finds a newer leader, a result that landed
// meanwhile, or takes the key over and queues. Its own context still
// cancels it, and at shutdown it is left live, like a queued job, for
// the journal to re-admit.
func (s *Server) follow(j, leader *Job) {
	select {
	case <-j.ctx.Done():
	case <-leader.Done():
	}
	st := leader.Status()
	switch {
	case s.baseCtx.Err() != nil:
		// Shutdown: the journal's submit record re-admits the follower.
	case st.State == StateDone && st.Result != nil:
		s.reg.Add("jobs.completed", 1)
		j.finishCoalesced(st.Result, leader.Profile())
	case errors.Is(j.ctx.Err(), context.DeadlineExceeded):
		s.reg.Add("jobs.failed", 1)
		j.finish(StateFailed, nil, "deadline exceeded while coalesced")
	case j.ctx.Err() != nil:
		s.reg.Add("jobs.canceled", 1)
		j.finish(StateCanceled, nil, "canceled while coalesced")
	default:
		if _, _, err := s.admit(j, false); err != nil {
			s.reg.Add("jobs.failed", 1)
			j.finish(StateFailed, nil, "queue full after coalesced leader aborted")
		}
	}
}

// startClock gives the job its context: bounded by its own deadline_ms,
// else the server default, counted from now; unbounded when both are 0.
// Replay restarts the clock at recovery: the journal records no submit
// time, and charging crash downtime against the job would fail work the
// previous process had already accepted.
func (s *Server) startClock(j *Job) {
	d := time.Duration(j.Request().DeadlineMs) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, d)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
}
