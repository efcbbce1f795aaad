package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gpmetis/internal/obs"
)

// RPC type labels for the per-peer × per-RPC-type latency and error
// series (gpmetisd_cluster_rpc_*). The replica PUT wire call carries
// two labels depending on why it was made — replication or anti-entropy
// repair — so each background subsystem's traffic is separable on a
// dashboard.
const (
	rpcForward    = "forward"
	rpcPeek       = "peek"
	rpcReplicaPut = "replica_put"
	rpcRepairPut  = "repair_put"
	rpcSummary    = "summary"
	rpcProbe      = "probe"
	rpcAnnounce   = "announce"
	rpcProxy      = "proxy"
	rpcTraceFetch = "trace_fetch"
	rpcStatus     = "status"
)

// rpcTypes enumerates every label for eager declaration: all series
// exist on a fresh /metrics scrape, not after the first call of each
// kind (the metrics-lint invariant).
var rpcTypes = []string{
	rpcForward, rpcPeek, rpcReplicaPut, rpcRepairPut,
	rpcSummary, rpcProbe, rpcAnnounce, rpcProxy, rpcTraceFetch, rpcStatus,
}

// rpcBuckets is the wall-seconds ladder for internode RPC latency:
// loopback rings sit in the sub-millisecond rungs, real networks in the
// middle, and the top rungs catch timeouts.
var rpcBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// clusterSeries are the node's unlabeled registry series with their
// HELP text, all present from the node's first scrape.
var clusterSeries = []struct{ name, help string }{
	{"cluster.node_id", "This node's ring identity."},
	{"cluster.ring_size", "Ring member count from peers.json."},
	{"cluster.forwards", "Submissions this node forwarded to their ring owner."},
	{"cluster.peek_hits", "Cross-node cache peeks answered by a remote cache."},
	{"cluster.peek_misses", "Cross-node cache peeks the remote cache could not answer."},
	{"cluster.failovers_total", "Submissions routed to a ring successor because the owner was down."},
	{"cluster.net_modeled_seconds", "Modeled α+βn network seconds charged to cluster traffic."},
	{"cluster.net_messages", "Inter-node messages charged against the modeled network."},
	{"cluster.replicas", "Configured replication factor (1 = replication off)."},
	{"cluster.replica_pushes", "Completed results this node pushed to ring replicas."},
	{"cluster.replica_stores", "Replica entries this node stored on behalf of peers."},
	{"cluster.replica_hits", "Failover reads answered from a replica instead of recomputed."},
	{"cluster.repair_pushed", "Cache entries pushed to peers by anti-entropy repair."},
	{"cluster.repair_pulled", "Cache entries pulled from peers by anti-entropy repair and read-repair."},
	{"cluster.rpc_inflight", "Internode RPCs currently in flight from this node."},
}

// declareMetrics describes and declares the node's series in its
// server's registry: the unlabeled ones and each peer's RPC series
// (declarePeerSeries). Peer up gauges come with their health entries
// (newNodeHealth). The real-wall RPC series sit beside the modeled α+βn
// accounting of NetModel: the model says what the traffic should cost,
// these say what it did cost.
func (n *Node) declareMetrics() {
	for _, cs := range clusterSeries {
		n.reg.Describe(cs.name, cs.help)
		n.reg.Add(cs.name, 0)
	}
	n.reg.Describe("cluster.node_up", "Per-peer health as seen by this node (1 up, 0 down).")
	n.reg.Describe("cluster.rpc_errors_total", "Failed internode RPCs by peer and type.")
	n.reg.Describe("cluster.rpc_seconds", "Real wall seconds of internode RPCs by peer and type (the modeled charge is gpmetisd_cluster_net_modeled_seconds).")
	n.reg.Set("cluster.node_id", float64(n.self.ID))
	n.reg.Set("cluster.replicas", float64(n.cfg.Replicas))
	n.reg.Set("cluster.ring_size", float64(len(n.peersAll)))
	for _, p := range n.peersAll {
		if p.ID != n.self.ID {
			n.declarePeerSeries(p.ID)
		}
	}
}

// declarePeerSeries eagerly declares peer id's RPC latency histograms and
// error counters, so every (peer, rpc) series exists on a fresh scrape.
func (n *Node) declarePeerSeries(id int) {
	for _, rpc := range rpcTypes {
		n.reg.DeclareHistogramWith("cluster.rpc_seconds", rpcLabels(id, rpc), rpcBuckets)
		n.reg.AddWith("cluster.rpc_errors_total", rpcLabels(id, rpc), 0)
	}
}

// deletePeerSeries drops every per-peer series of id — its up gauge and
// its RPC series — once id is no longer a configured member.
func (n *Node) deletePeerSeries(id int) {
	n.reg.Delete("cluster.node_up", peerLabels(id))
	for _, rpc := range rpcTypes {
		n.reg.Delete("cluster.rpc_seconds", rpcLabels(id, rpc))
		n.reg.Delete("cluster.rpc_errors_total", rpcLabels(id, rpc))
	}
}

// rpcLabels is the label set of one (peer, rpc-type) series.
func rpcLabels(peer int, rpc string) []obs.Label {
	return []obs.Label{{Key: "peer", Value: strconv.Itoa(peer)}, {Key: "rpc", Value: rpc}}
}

// clusterSpanIDBase keeps the cluster tier's span ids disjoint from
// both the lifecycle span range (1_000_000+) and the modeled tracer's
// ids inside one stitched document.
const clusterSpanIDBase = 2_000_000

// nextSpanID mints a node-unique span id for a cluster-side span (a
// forward, a background round's per-peer push).
func (n *Node) nextSpanID() int64 {
	return clusterSpanIDBase + n.spanSeq.Add(1)
}

// doRPC is the single door every internode HTTP call goes through: it
// tracks the in-flight gauge, times the call with the real wall clock,
// and folds the outcome into the per-peer × per-RPC histograms.
// Transport errors and 5xx answers count as errors; 4xx answers (a peek
// miss's 404, say) are successful RPCs.
func (n *Node) doRPC(client *http.Client, p Peer, rpc string, req *http.Request) (*http.Response, error) {
	n.reg.Add("cluster.rpc_inflight", 1)
	t0 := time.Now()
	resp, err := client.Do(req)
	secs := time.Since(t0).Seconds()
	n.reg.Add("cluster.rpc_inflight", -1)
	labels := rpcLabels(p.ID, rpc)
	n.reg.ObserveWith("cluster.rpc_seconds", labels, secs)
	if err != nil || (resp != nil && resp.StatusCode >= 500) {
		n.reg.AddWith("cluster.rpc_errors_total", labels, 1)
	}
	return resp, err
}

// spanAttrs builds the standard attrs of a cluster-side span.
func spanAttrs(p Peer, kvs ...any) map[string]any {
	attrs := map[string]any{"peer": p.ID, "addr": p.Addr}
	for i := 0; i+1 < len(kvs); i += 2 {
		attrs[fmt.Sprint(kvs[i])] = kvs[i+1]
	}
	return attrs
}

// recordRoundSpan stores one closed span of a background round (a
// replication push, a summary exchange, a repair transfer) into the node's
// bounded span store, so GET /internal/trace/{trace_id} can replay the
// round.
func (n *Node) recordRoundSpan(traceID, name string, start, end time.Time, attrs map[string]any) {
	n.spans.Append(traceID, obs.SpanRecord{
		Span:  n.nextSpanID(),
		Name:  name,
		Start: start,
		End:   end,
		Attrs: attrs,
	})
}
