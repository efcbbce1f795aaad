package cluster

import (
	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// msgOverheadBytes is the fixed envelope cost charged per inter-node
// message (headers, framing), matching the MPI substrate's per-message
// overhead so cluster traffic and rank traffic share one currency.
const msgOverheadBytes = 64

// NetModel charges cluster traffic against the same α+βn network the
// MPI ranks use: every peek, forward, response, and health probe costs
// LatencySec + bytes/BytesPerSec modeled seconds. The running total and
// message count accumulate in the registry's cluster.net_modeled_seconds
// and cluster.net_messages, so bench -compare can gate routing overhead
// exactly as it gates kernel time.
type NetModel struct {
	net perfmodel.NetParams
	reg *obs.Registry
}

// NewNetModel builds the model from a machine's network parameters,
// accounting into reg; nil m takes gpmetis.DefaultMachine().
func NewNetModel(m *gpmetis.Machine, reg *obs.Registry) *NetModel {
	if m == nil {
		m = gpmetis.DefaultMachine()
	}
	return &NetModel{net: m.Net, reg: reg}
}

// Charge accounts one message of payloadBytes (plus the fixed envelope)
// and returns its modeled seconds.
func (n *NetModel) Charge(payloadBytes int) float64 {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	sec := n.net.LatencySec + float64(payloadBytes+msgOverheadBytes)/n.net.BytesPerSec
	n.reg.Add("cluster.net_modeled_seconds", sec)
	n.reg.Add("cluster.net_messages", 1)
	return sec
}
