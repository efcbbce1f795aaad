package server

import (
	"fmt"
	"html/template"
	"net/http"
	"time"
)

// statusSnapshot assembles the ops view's data: live occupancy, lifetime
// counters, cache economics, per-slot state, latency percentiles, and
// the SLO evaluation. It is the single source for /admin/status,
// /admin/status.json, and the gpmetis -top client.
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
			s.reg.Get("jobs.rejected_quota") + s.reg.Get("jobs.rejected_ratelimit") +
			s.reg.Get("jobs.rejected_deadline")),
		JobsShed:      int64(s.reg.Get("jobs.shed")),
		JobsCoalesced: int64(s.reg.Get("jobs.coalesced")),
		JobsDegraded:  int64(s.reg.Get("jobs.degraded")),
		SLO:           s.slo.Snapshot(),
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
		row := SlotStatus{
			Slot:        slot,
			State:       DeviceHealthy,
			RunningJob:  running,
			Jobs:        int64(s.reg.GetWith("slot_jobs", slotLabels(slot))),
			BusySeconds: s.reg.GetWith("slot_busy_seconds", slotLabels(slot)),
		}
		if s.pool.health[slot].quarantined() {
			row.State = DeviceQuarantined
		}
		st.Slots = append(st.Slots, row)
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

// statusTmpl is the live ops view: one static HTML page that refreshes
// itself every two seconds, no JavaScript required.
var statusTmpl = template.Must(template.New("status").Funcs(template.FuncMap{
	"secs": func(v float64) string { return fmt.Sprintf("%.3fs", v) },
	"pct":  func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) },
	"burn": func(v float64) string { return fmt.Sprintf("%.2f", v) },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>gpmetisd status</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.4rem; }
table { border-collapse: collapse; margin-top: 0.4rem; }
td, th { border: 1px solid #333; padding: 0.25rem 0.6rem; text-align: right; }
th { background: #1c1c1c; } td:first-child, th:first-child { text-align: left; }
.ok { color: #6c6; } .warn { color: #fc6; } .breach, .draining, .quarantined { color: #f66; }
.muted { color: #777; }
</style>
</head>
<body>
<h1>gpmetisd {{.Version}} &mdash; <span class="{{.Status}}">{{.Status}}</span>
<span class="muted">(up {{secs .UptimeSeconds}}, refreshes every 2s)</span></h1>

<h2>Queue &amp; jobs</h2>
<table>
<tr><th>queue</th><th>submitted</th><th>completed</th><th>failed</th><th>canceled</th><th>rejected</th><th>shed</th><th>coalesced</th><th>degraded</th><th>modeled</th></tr>
<tr><td>{{.QueueDepth}}/{{.QueueCap}}</td><td>{{.JobsSubmitted}}</td><td>{{.JobsCompleted}}</td><td>{{.JobsFailed}}</td><td>{{.JobsCanceled}}</td><td>{{.JobsRejected}}</td><td>{{.JobsShed}}</td><td>{{.JobsCoalesced}}</td><td>{{.JobsDegraded}}</td><td>{{secs .ModeledSeconds}}</td></tr>
</table>

<h2>Tenants</h2>
<table>
<tr><th>tenant</th><th>weight</th><th>queued</th><th>submitted</th><th>completed</th><th>shed</th><th>rejected</th><th>served</th></tr>
{{range .Tenants}}<tr><td>{{.Name}}</td><td>{{.Weight}}</td><td>{{.Queued}}{{if .MaxQueued}}/{{.MaxQueued}}{{end}}</td><td>{{.Submitted}}</td><td>{{.Completed}}</td><td>{{.Shed}}</td><td>{{.Rejected}}</td><td>{{secs .ServedModeledSeconds}}</td></tr>
{{end}}</table>

<h2>Cache</h2>
<table>
<tr><th>hits</th><th>misses</th><th>hit rate</th><th>entries</th></tr>
<tr><td>{{.CacheHits}}</td><td>{{.CacheMisses}}</td><td>{{pct .CacheHitRate}}</td><td>{{.CacheEntries}}</td></tr>
</table>

<h2>Device slots</h2>
<table>
<tr><th>slot</th><th>state</th><th>running</th><th>jobs</th><th>busy</th></tr>
{{range .Slots}}<tr><td>{{.Slot}}</td><td class="{{.State}}">{{.State}}</td><td>{{if .RunningJob}}{{.RunningJob}}{{else}}<span class="muted">idle</span>{{end}}</td><td>{{.Jobs}}</td><td>{{secs .BusySeconds}}</td></tr>
{{end}}</table>

{{if .Cluster}}<h2>Cluster &mdash; node {{.Cluster.NodeID}} ({{.Cluster.Addr}}), {{.Cluster.VNodes}} vnodes{{if .Cluster.Replicas}}, RF={{.Cluster.Replicas}}{{end}}</h2>
<table>
<tr><th>forwards</th><th>peek hits</th><th>peek misses</th><th>failovers</th><th>net modeled</th><th>net msgs</th></tr>
<tr><td>{{.Cluster.Forwards}}</td><td>{{.Cluster.PeekHits}}</td><td>{{.Cluster.PeekMisses}}</td><td>{{.Cluster.Failovers}}</td><td>{{secs .Cluster.NetModeledSeconds}}</td><td>{{.Cluster.NetMessages}}</td></tr>
</table>
{{if .Cluster.Replicas}}<table>
<tr><th>replica pushes</th><th>replica stores</th><th>replica hits</th><th>repair pushed</th><th>repair pulled</th></tr>
<tr><td>{{.Cluster.ReplicaPushes}}</td><td>{{.Cluster.ReplicaStores}}</td><td>{{.Cluster.ReplicaHits}}</td><td>{{.Cluster.RepairPushed}}</td><td>{{.Cluster.RepairPulled}}</td></tr>
</table>
{{end}}<table>
<tr><th>peer</th><th>addr</th><th>state</th><th>strikes</th><th>downs</th></tr>
{{range .Cluster.Peers}}<tr><td>{{.ID}}{{if .Self}} (self){{end}}</td><td>{{.Addr}}</td><td class="{{if .Left}}muted{{else if eq .State "down"}}breach{{else}}ok{{end}}">{{if .Left}}left{{else}}{{.State}}{{end}}</td><td>{{.Strikes}}</td><td>{{.Downs}}</td></tr>
{{end}}</table>
{{end}}
<h2>Latency (wall clock)</h2>
<table>
<tr><th>stage</th><th>count</th><th>p50</th><th>p90</th><th>p99</th></tr>
<tr><td>queue wait</td><td>{{.QueueWait.Count}}</td><td>{{secs .QueueWait.P50}}</td><td>{{secs .QueueWait.P90}}</td><td>{{secs .QueueWait.P99}}</td></tr>
<tr><td>run</td><td>{{.RunSeconds.Count}}</td><td>{{secs .RunSeconds.P50}}</td><td>{{secs .RunSeconds.P90}}</td><td>{{secs .RunSeconds.P99}}</td></tr>
<tr><td>total</td><td>{{.TotalSeconds.Count}}</td><td>{{secs .TotalSeconds.P50}}</td><td>{{secs .TotalSeconds.P90}}</td><td>{{secs .TotalSeconds.P99}}</td></tr>
</table>

<h2>SLO &mdash; <span class="{{.SLO.Status}}">{{.SLO.Status}}</span></h2>
<table>
<tr><th>objective</th><th>target</th><th>fast burn</th><th>slow burn</th></tr>
<tr><td>latency &le; {{secs .SLO.LatencyThresholdSeconds}}</td><td>{{pct .SLO.LatencyTarget}}</td><td>{{burn .SLO.Fast.LatencyBurn}}</td><td>{{burn .SLO.Slow.LatencyBurn}}</td></tr>
<tr><td>availability</td><td>{{pct .SLO.AvailabilityTarget}}</td><td>{{burn .SLO.Fast.AvailabilityBurn}}</td><td>{{burn .SLO.Slow.AvailabilityBurn}}</td></tr>
</table>
<p class="muted">window jobs: fast {{.SLO.Fast.Jobs}}, slow {{.SLO.Slow.Jobs}} &middot;
events recorded: {{.EventsTotal}}{{if .LastEvent}} &middot; last event {{.LastEvent}}{{end}} &middot;
data: <a href="/admin/status.json">/admin/status.json</a>, <a href="/slo">/slo</a>, <a href="/admin/events">/admin/events</a>, <a href="/metrics">/metrics</a></p>
</body>
</html>
`))

func (s *Server) handleStatusHTML(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statusTmpl.Execute(w, s.statusSnapshot()); err != nil {
		s.log.Error("status page render failed", "error", err.Error())
	}
}
