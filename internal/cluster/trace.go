package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// fwdInfo is what the entry node remembers about a job it forwarded:
// the owning peer for proxying, and the trace context the forward
// carried — the shared trace id, the forward span's id (the remote
// spans' parent), the send instant on this node's clock, the measured
// round trip, and the modeled network charge. sentAt and rtt are the
// clock-alignment inputs: the owner received the forward at roughly
// sentAt + rtt/2 on this node's clock.
type fwdInfo struct {
	peer       Peer
	traceID    string
	spanID     int64
	sentAt     time.Time
	rtt        time.Duration
	netSeconds float64
}

// handleTraceFetch serves this node's spans under a trace id — the
// stitching RPC. Job traces come from the job index (bounded by the
// server's MaxJobs retention); background-round traces from the bounded
// span store. Either bound may have evicted the trace, in which case
// the answer is 404 and the entry node falls back to a plain proxy.
func (n *Node) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("trace_id")
	if j, ok := n.srv.JobByTrace(tid); ok {
		writeJSON(w, http.StatusOK, n.srv.NodeTraceForJob(j))
		return
	}
	if st, ok := n.spans.Get(tid); ok {
		writeJSON(w, http.StatusOK, server.NodeTrace{
			NodeID:  strconv.Itoa(n.self.ID),
			Addr:    n.self.Addr,
			TraceID: tid,
			Spans:   st.Spans,
		})
		return
	}
	writeJSON(w, http.StatusNotFound,
		server.ErrorResponse{Error: "no spans under this trace id", Code: server.CodeNotFound})
}

// fetchRemoteTrace pulls the owner's spans for a forwarded job's trace.
func (n *Node) fetchRemoteTrace(fi fwdInfo) (*server.NodeTrace, error) {
	n.net.Charge(len(fi.traceID))
	req, err := http.NewRequest(http.MethodGet, "http://"+fi.peer.Addr+"/internal/trace/"+fi.traceID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.doRPC(n.client, fi.peer, rpcTraceFetch, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	n.net.Charge(len(b))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace fetch status %d", resp.StatusCode)
	}
	var nt server.NodeTrace
	if err := json.Unmarshal(b, &nt); err != nil {
		return nil, err
	}
	return &nt, nil
}

// stitchForwardedTrace renders a forwarded job's distributed trace as
// one Chrome document with one pid per node:
//
//	pid 1  this entry node — the cluster-forward span (start = the
//	       forward's send instant, duration = its measured RTT)
//	pid 2  the owning node's service lifecycle spans, each parented
//	       under the forward span by the trace context the forward
//	       carried
//	pid 3  the owning node's modeled partition sub-trace (if it ran)
//
// Clock alignment: the two nodes' wall clocks need not agree, so the
// owner's local trace origin (its job-submission instant) is placed at
// sentAt + rtt/2 on the entry node's clock, the midpoint estimate of
// when the forward arrived. Returns false (nothing written) when the
// remote fetch fails, so the caller can fall back to a plain proxy.
func (n *Node) stitchForwardedTrace(w http.ResponseWriter, fi fwdInfo) bool {
	nt, err := n.fetchRemoteTrace(fi)
	if err != nil {
		n.log.Warn("trace stitch failed; proxying the owner's document",
			"job_trace", fi.traceID, "peer", fi.peer.ID, "error", err.Error())
		return false
	}
	n.clearStrikes(fi.peer)

	forward := obs.SpanRecord{
		Span:  fi.spanID,
		Name:  "cluster-forward",
		Start: fi.sentAt,
		End:   fi.sentAt.Add(fi.rtt),
		Attrs: map[string]any{
			"to": fi.peer.ID, "to_addr": fi.peer.Addr,
			"rtt_seconds": fi.rtt.Seconds(), "net_modeled_seconds": fi.netSeconds,
		},
	}
	events := append([]obs.ChromeEvent{
		obs.ProcessNameEvent(1, fmt.Sprintf("node %d (%s)", n.self.ID, n.self.Addr)),
		obs.ThreadNameEvent(1, 0, "cluster"),
	}, obs.WallEvents([]obs.SpanRecord{forward}, 1, "cluster", fi.sentAt, map[string]any{
		"trace_id": fi.traceID, "job_id": nt.JobID, "node": strconv.Itoa(n.self.ID),
	})...)
	origin := nt.Anchor.Add(-fi.rtt / 2)
	events = append(events, nt.ChromeEvents(2,
		fmt.Sprintf("node %s (%s)", nt.NodeID, nt.Addr),
		fmt.Sprintf("node %s partition (modeled clock)", nt.NodeID),
		origin, map[string]any{"node": nt.NodeID})...)

	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeJSON(w, events)
	return true
}
