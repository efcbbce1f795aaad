package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

// rpcStat is one (peer, rpc-type) cell: a non-cumulative bucket
// histogram of real wall seconds plus an error count.
type rpcStat struct {
	counts []uint64
	sum    float64
	count  uint64
	errors uint64
}

// rpcMetrics aggregates every internode RPC this node issued, keyed by
// (peer id, rpc type). It lives beside the modeled α+βn accounting in
// NetModel: the model says what the traffic should cost, these series
// say what it did cost.
type rpcMetrics struct {
	mu       sync.Mutex
	stats    map[string]*rpcStat
	inflight atomic.Int64
}

func newRPCMetrics() *rpcMetrics {
	return &rpcMetrics{stats: make(map[string]*rpcStat)}
}

func rpcKey(peer int, rpc string) string { return strconv.Itoa(peer) + "|" + rpc }

// declare ensures the (peer, rpc) cell exists so its series render on
// the next scrape even before the first call.
func (m *rpcMetrics) declare(peer int, rpc string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cellLocked(peer, rpc)
}

func (m *rpcMetrics) cellLocked(peer int, rpc string) *rpcStat {
	k := rpcKey(peer, rpc)
	st, ok := m.stats[k]
	if !ok {
		st = &rpcStat{counts: make([]uint64, len(rpcBuckets)+1)}
		m.stats[k] = st
	}
	return st
}

// observe folds one completed RPC into its cell.
func (m *rpcMetrics) observe(peer int, rpc string, seconds float64, failed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.cellLocked(peer, rpc)
	i := sort.SearchFloat64s(rpcBuckets, seconds)
	st.counts[i]++
	st.sum += seconds
	st.count++
	if failed {
		st.errors++
	}
}

// snapshot renders the cells as exposition extras: the labeled
// cluster.rpc_seconds histograms, the cluster.rpc_errors_total
// counters, and the cluster.rpc_inflight gauge, in deterministic
// (peer, rpc) order.
func (m *rpcMetrics) snapshot() ([]obs.PromSample, []obs.PromHistogram) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.stats))
	for k := range m.stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type cell struct {
		peer, rpc string
		st        rpcStat
	}
	cells := make([]cell, 0, len(keys))
	for _, k := range keys {
		st := m.stats[k]
		c := cell{st: rpcStat{
			counts: append([]uint64(nil), st.counts...),
			sum:    st.sum, count: st.count, errors: st.errors,
		}}
		for i := 0; i < len(k); i++ {
			if k[i] == '|' {
				c.peer, c.rpc = k[:i], k[i+1:]
				break
			}
		}
		cells = append(cells, c)
	}
	m.mu.Unlock()

	samples := []obs.PromSample{{
		Name:  "cluster.rpc_inflight",
		Value: float64(m.inflight.Load()),
		Help:  "Internode RPCs currently in flight from this node.",
	}}
	var hists []obs.PromHistogram
	for i, c := range cells {
		labels := []obs.Label{{Key: "peer", Value: c.peer}, {Key: "rpc", Value: c.rpc}}
		smp := obs.PromSample{Name: "cluster.rpc_errors_total", Labels: labels, Value: float64(c.st.errors)}
		if i == 0 {
			smp.Help = "Failed internode RPCs by peer and type."
		}
		samples = append(samples, smp)
		h := obs.PromHistogram{
			Name: "cluster.rpc_seconds", Labels: labels,
			Bounds: rpcBuckets, Counts: c.st.counts,
			Sum: c.st.sum, Count: c.st.count,
		}
		if i == 0 {
			h.Help = "Real wall seconds of internode RPCs by peer and type (the modeled charge is gpmetisd_cluster_net_modeled_seconds)."
		}
		hists = append(hists, h)
	}
	return samples, hists
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
	n.rpc.inflight.Add(1)
	t0 := time.Now()
	resp, err := client.Do(req)
	secs := time.Since(t0).Seconds()
	n.rpc.inflight.Add(-1)
	failed := err != nil || (resp != nil && resp.StatusCode >= 500)
	n.rpc.observe(p.ID, rpc, secs, failed)
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
