package server

import (
	"net/http"
	"time"
)

// statusSnapshot assembles the ops view's data: live occupancy, lifetime
// counters, cache economics, per-slot state, and latency percentiles.
// It is the single source for /admin/status.json and so for the
// gpmetis -top client.
func (s *Server) statusSnapshot() StatusResponse {
	st := StatusResponse{
		Status:         "ok",
		Version:        Version,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		ModeledSeconds: s.reg.Get("modeled.seconds"),
		QueueDepth:     s.fq.Len(),
		QueueCap:       s.cfg.QueueCap,
		JobsSubmitted:  int64(s.reg.Get("jobs.submitted")),
		JobsCompleted:  int64(s.reg.Get("jobs.completed")),
		JobsFailed:     int64(s.reg.Get("jobs.failed")),
		JobsCanceled:   int64(s.reg.Get("jobs.canceled")),
		JobsRejected: int64(s.reg.Get("jobs.rejected") + s.reg.Get("jobs.rejected_draining") +
			s.reg.Get("jobs.rejected_quota") + s.reg.Get("jobs.rejected_ratelimit")),
		JobsShed:      int64(s.reg.Get("jobs.shed")),
		JobsCoalesced: int64(s.reg.Get("jobs.coalesced")),
		JobsDegraded:  int64(s.reg.Get("jobs.degraded")),
		Tenants:       s.tenants.snapshot(),
		EventsTotal:   s.events.Total(),
	}
	if s.Draining() {
		st.Status = "draining"
	}
	if lt := s.events.LastTime(); !lt.IsZero() {
		st.LastEvent = lt.UTC().Format(time.RFC3339Nano)
	}

	st.CacheHits = int64(s.reg.Get("cache.hits"))
	st.CacheMisses = int64(s.reg.Get("cache.misses"))
	st.CacheEntries = s.cache.Len()
	st.CacheHitRate = s.cacheHitRate()

	for slot, running := range s.pool.slotOccupancy() {
		st.Slots = append(st.Slots, SlotStatus{
			Slot:        slot,
			RunningJob:  running,
			Jobs:        int64(s.reg.GetWith("slot_jobs", slotLabels(slot))),
			BusySeconds: s.reg.GetWith("slot_busy_seconds", slotLabels(slot)),
		})
	}

	st.QueueWait = s.latencySummary("job.queue_seconds")
	st.RunSeconds = s.latencySummary("job.run_seconds")
	st.TotalSeconds = s.latencySummary("job.total_seconds")
	st.Cluster = s.clusterStatus()
	return st
}

// StatusSnapshot is the exported read of the ops view's data — the
// cluster tier's fleet fan-out uses it for this node's own row instead
// of HTTP-ing to itself.
func (s *Server) StatusSnapshot() StatusResponse { return s.statusSnapshot() }

// latencySummary reads one histogram's count and interpolated p50/90/99.
func (s *Server) latencySummary(name string) LatencySummary {
	h, ok := s.reg.Histogram(name)
	if !ok {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

func (s *Server) handleStatusJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statusSnapshot())
}
