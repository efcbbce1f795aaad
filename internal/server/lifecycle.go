package server

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"gpmetis/internal/obs"
)

// ErrDraining is the typed graceful-shutdown rejection: the server is
// draining and admits nothing new. The HTTP layer maps it to 503 with
// code "draining"; clients retry against another node or wait.
var ErrDraining = errors.New("server: draining, not accepting new jobs")

// Lifecycle span names. Together they tile a job's wall-clock path
// through the service: admission (validation + cache consultation),
// queue wait, the scheduling handoff, the run itself, and the terminal
// journal append.
const (
	lifeAdmit     = "admit"
	lifeCacheLook = "cache-lookup"
	lifeQueueWait = "queue-wait"
	lifeSchedule  = "schedule"
	lifeRun       = "run"
	lifeJournal   = "journal-append"
	lifeCoalesced = "coalesced-wait"
	// lifeClusterForward precedes admit on jobs that arrived via the ring:
	// a zero-width span carrying the forward's modeled network seconds.
	lifeClusterForward = "cluster-forward"
)

// addLifeSpan appends one closed lifecycle span to the job. Spans are
// numbered from lifeSpanIDBase in recording order; a ring-forwarded
// job's spans parent under the entry node's cluster-forward span.
func (j *Job) addLifeSpan(name string, start, end time.Time, attrs map[string]any) {
	j.mu.Lock()
	j.lifeSpans = append(j.lifeSpans, obs.SpanRecord{
		Span:   lifeSpanIDBase + int64(len(j.lifeSpans)),
		Parent: j.forwardSpan,
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  attrs,
	})
	j.mu.Unlock()
}

// markRunStart stamps the wall-clock instant the partition run began,
// the anchor that places the modeled sub-trace inside the run span.
func (j *Job) markRunStart(t time.Time) {
	j.mu.Lock()
	j.runStartAt = t
	j.mu.Unlock()
}

// assignID names the job and mints its trace ID. Trace IDs are
// 128-bit crypto/rand hex, unique across nodes and restarts (the
// journal reuses job IDs, never trace IDs).
// A job whose trace ID was pre-set — a ring forward carrying the entry
// node's id — keeps it, so the distributed trace stays one trace.
func (s *Server) assignID(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j.ID = fmt.Sprintf("%s%06d", s.cfg.JobIDPrefix, s.seq)
	if j.traceID == "" {
		j.traceID = obs.NewTraceID()
	}
}

// jlog returns the job-correlated logger: every line it emits carries
// the job and trace IDs — and, when clustering is on, the node id — so
// one job's lifecycle is a single grep even across a ring.
func (s *Server) jlog(j *Job) *slog.Logger {
	l := s.log.With("job_id", j.ID, "trace_id", j.traceID)
	if id := s.hooks().NodeID; id != "" {
		l = l.With("node_id", id)
	}
	return l
}

// event appends one lifecycle event to the flight recorder. Job-scoped
// events carry the job and trace IDs; server-scoped events pass nil.
// When clustering is on, every event is stamped with this node's id so
// fleet-merged event streams stay attributable.
func (s *Server) event(typ string, j *Job, slot int, detail string) {
	e := obs.Event{Type: typ, Slot: slot, Detail: detail, Node: s.hooks().NodeID}
	if j != nil {
		e.Job, e.Trace = j.ID, j.traceID
	}
	s.events.Append(e)
	s.reg.Add("events.recorded", 1)
}

// tracedEvent is event for server-scoped records that belong to a
// cluster background round: the round's trace id rides along, linking
// the flight-recorder entry to the round's spans.
func (s *Server) tracedEvent(typ, trace, detail string) {
	e := obs.Event{Type: typ, Slot: -1, Detail: detail, Trace: trace, Node: s.hooks().NodeID}
	s.events.Append(e)
	s.reg.Add("events.recorded", 1)
}

// observeTerminal is the single account-closing point for every job the
// server watched to a terminal state: the end-to-end latency histogram,
// the lifecycle event, and the outcome log line all originate here.
func (s *Server) observeTerminal(j *Job) {
	st := j.Status()
	now := time.Now()
	_, submitted, _ := j.LifeSpans()
	var total float64
	if !submitted.IsZero() {
		total = now.Sub(submitted).Seconds()
	}
	s.reg.Observe("job.total_seconds", total)
	if st.Coalesced {
		j.addLifeSpan(lifeCoalesced, submitted, now, map[string]any{"leader_result": st.State})
	}

	log := s.jlog(j).With("state", st.State, "total_seconds", total,
		"cached", st.Cached, "coalesced", st.Coalesced, "device", st.Device)
	switch st.State {
	case StateDone:
		s.tenantAdd(j.tenant, "tenant.completed", 1)
		detail := ""
		if st.Result != nil {
			detail = fmt.Sprintf("cut=%d modeled=%.6fs", st.Result.EdgeCut, st.Result.ModeledSeconds)
			log = log.With("edge_cut", st.Result.EdgeCut, "modeled_seconds", st.Result.ModeledSeconds,
				"degraded", st.Result.Degraded)
		}
		s.event(obs.EvDone, j, st.Device, detail)
		log.Info("job done")
	case StateFailed:
		s.event(obs.EvFailed, j, st.Device, st.Error)
		log.Warn("job failed", "error", st.Error)
	case StateCanceled:
		s.event(obs.EvCanceled, j, st.Device, st.Error)
		log.Info("job canceled", "error", st.Error)
	}
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// StartDrain flips the server into draining mode: every subsequent
// Submit is rejected with ErrDraining (HTTP 503) while queued and
// running jobs keep making progress and every read endpoint stays up.
func (s *Server) StartDrain() {
	if s.draining.Swap(true) {
		return
	}
	s.reg.Set("draining", 1)
	s.event(obs.EvDrainBegin, nil, -1, "admission stopped")
	s.log.Info("drain started: admission stopped, letting in-flight jobs finish")
}

// Drain performs graceful shutdown: stop admission, then wait up to
// timeout for every queued and running job to reach a terminal state.
// It returns how many live jobs drained cleanly and how many were still
// live at the deadline (those are abandoned by Close and, on a journaled
// daemon, re-admitted by the next process). The journal is flushed by
// the Close that should follow.
func (s *Server) Drain(timeout time.Duration) (drained, aborted int) {
	s.StartDrain()
	s.mu.Lock()
	var live []*Job
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			if st := j.Status().State; st == StateQueued || st == StateRunning {
				live = append(live, j)
			}
		}
	}
	s.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, j := range live {
		select {
		case <-j.Done():
			drained++
		case <-deadline.C:
			// Deadline reached; everything not already done is aborted.
			for _, rest := range live[drained+aborted:] {
				select {
				case <-rest.Done():
					drained++
				default:
					aborted++
				}
			}
			s.finishDrain(drained, aborted)
			return drained, aborted
		}
	}
	s.finishDrain(drained, aborted)
	return drained, aborted
}

func (s *Server) finishDrain(drained, aborted int) {
	detail := fmt.Sprintf("drained=%d aborted=%d", drained, aborted)
	s.event(obs.EvDrainEnd, nil, -1, detail)
	s.log.Info("drain finished", "drained", drained, "aborted", aborted)
	if aborted > 0 {
		s.log.Warn("drain deadline hit with live jobs; the journal re-admits them on restart",
			"aborted", aborted)
	}
}

// DumpEvents writes the flight recorder's retained tail as JSON — the
// daemon's SIGQUIT post-mortem artifact.
func (s *Server) DumpEvents(w io.Writer) error { return s.events.Dump(w) }

// lifeSpanIDBase keeps service span IDs disjoint from the modeled
// tracer's span IDs inside one merged document.
const lifeSpanIDBase = 1_000_000

// serviceParent is the lifecycle span the modeled sub-trace hangs
// under: the run span, or the cache-lookup span on a cache hit (whose
// modeled spans are the original run's). Zero when neither exists yet.
func serviceParent(spans []obs.SpanRecord) int64 {
	var id int64
	for _, sp := range spans {
		switch {
		case sp.Name == lifeRun:
			return sp.Span
		case sp.Name == lifeCacheLook && id == 0:
			id = sp.Span
		}
	}
	return id
}

// NodeTraceForJob renders this node's view of a job as a NodeTrace: its
// lifecycle spans, the clock anchor (job submission), and the modeled
// Chrome events pre-rendered with service_parent pointing at this
// node's run span. It is both the source of the job's own trace
// document and the unit a peer fetches at GET /internal/trace/{trace_id}
// to stitch a forwarded job's remote half; timestamps stay on this
// node's clock, the stitcher aligns.
func (s *Server) NodeTraceForJob(j *Job) NodeTrace {
	spans, submitted, runStart := j.LifeSpans()
	st := j.Status()
	h := s.hooks()
	nt := NodeTrace{NodeID: h.NodeID, Addr: h.Addr, TraceID: st.TraceID, JobID: st.ID, Anchor: submitted, Spans: spans}
	if nt.Anchor.IsZero() && len(spans) > 0 {
		nt.Anchor = spans[0].Start
	}
	if t := j.Tracer(); t != nil {
		offset := 0.0
		if !runStart.IsZero() && !nt.Anchor.IsZero() {
			offset = obs.WallUS(nt.Anchor, runStart)
		}
		rootArgs := map[string]any{"job_id": st.ID, "trace_id": st.TraceID}
		if p := serviceParent(spans); p != 0 {
			rootArgs["service_parent"] = p
		}
		nt.Modeled = obs.TraceEvents(t, 2, offset, rootArgs)
	}
	return nt
}

// ChromeEvents renders the node trace on two process rows: the
// lifecycle spans on pid (named name, one "lifecycle" thread) and, when
// the job has a modeled sub-trace, that sub-trace on pid+1 (named
// modeledName). Timestamps are microseconds after origin on this node's
// clock: the job's own document passes the anchor, the stitcher the
// instant that lands the anchor at the forward's RTT midpoint on the
// entry node's clock. Every lifecycle span's args carry the job and
// trace ids, plus args.
func (nt *NodeTrace) ChromeEvents(pid int, name, modeledName string, origin time.Time, args map[string]any) []obs.ChromeEvent {
	common := map[string]any{"job_id": nt.JobID, "trace_id": nt.TraceID}
	for k, v := range args {
		common[k] = v
	}
	events := append([]obs.ChromeEvent{
		obs.ProcessNameEvent(pid, name),
		obs.ThreadNameEvent(pid, 0, "lifecycle"),
	}, obs.WallEvents(nt.Spans, pid, "service", origin, common)...)
	if len(nt.Modeled) == 0 {
		return events
	}
	shift := obs.WallUS(origin, nt.Anchor)
	events = append(events, obs.ProcessNameEvent(pid+1, modeledName))
	for _, ev := range nt.Modeled {
		ev.Pid = pid + 1
		if ev.Ph == "X" {
			ev.Ts += shift
		}
		events = append(events, ev)
	}
	return events
}
