package cluster

import (
	"strconv"
	"sync"

	"gpmetis/internal/obs"
)

// Node health states.
const (
	NodeUp   = "up"
	NodeDown = "down"
)

// nodeHealth is one peer's strike-based quarantine state machine. Only
// real transport failures count against a peer: consecutive failures —
// failed health probes or connection errors on the request path — cross
// a threshold and mark the node down; a down node must then answer a
// backoff-scaled number of consecutive probes before it is trusted
// again, and the backoff doubles with every quarantine so a flapping
// node spends exponentially longer distrusted.
// Every transition sets the peer's cluster.node_up series (1 up, 0 down).
type nodeHealth struct {
	mu     sync.Mutex
	reg    *obs.Registry
	labels []obs.Label

	state   string
	strikes int // consecutive failures while up
	downs   int // lifetime quarantine count; drives the probe backoff

	probesOK     int // consecutive successful probes while down
	probesNeeded int // required to reinstate this quarantine
}

// newNodeHealth starts peer id up and says so in reg.
func newNodeHealth(reg *obs.Registry, id int) *nodeHealth {
	h := &nodeHealth{state: NodeUp, reg: reg, labels: peerLabels(id)}
	reg.SetWith("cluster.node_up", h.labels, 1)
	return h
}

// peerLabels is the label set of a peer's cluster.node_up series.
func peerLabels(id int) []obs.Label {
	return []obs.Label{{Key: "node", Value: strconv.Itoa(id)}}
}

// strike records one failure. It returns true when the strike crossed
// the threshold and the node just went down.
func (h *nodeHealth) strike(threshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != NodeUp {
		return false
	}
	h.strikes++
	if h.strikes < threshold {
		return false
	}
	h.state = NodeDown
	h.reg.SetWith("cluster.node_up", h.labels, 0)
	h.downs++
	h.probesOK = 0
	h.probesNeeded = 1 << uint(min(h.downs-1, 6))
	return true
}

// clearStrikes resets the consecutive-failure counter after the node
// answered a request cleanly.
func (h *nodeHealth) clearStrikes() {
	h.mu.Lock()
	h.strikes = 0
	h.mu.Unlock()
}

// down reports whether the node is currently distrusted.
func (h *nodeHealth) down() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == NodeDown
}

// probeResult accounts one health probe. It returns true when the probe
// budget is met and the node just came back up.
func (h *nodeHealth) probeResult(ok bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != NodeDown {
		if ok {
			h.strikes = 0
		}
		return false
	}
	if !ok {
		h.probesOK = 0 // still sick; the budget restarts
		return false
	}
	h.probesOK++
	if h.probesOK < h.probesNeeded {
		return false
	}
	h.state = NodeUp
	h.reg.SetWith("cluster.node_up", h.labels, 1)
	h.strikes = 0
	return true
}

// snapshot reads the state for the wire.
func (h *nodeHealth) snapshot() (state string, strikes, downs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.strikes, h.downs
}
