package server

import (
	"sync"

	"gpmetis"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/obs"
)

// Slot quarantine states.
const (
	DeviceHealthy     = "healthy"
	DeviceQuarantined = "quarantined"
)

// slotHealth tracks one device slot's quarantine state machine. A slot
// that keeps killing jobs with modeled device deaths is pulled from the
// pool (quarantined) and must earn its way back by running health-probe
// jobs until it has spent the reinstatement backoff on its modeled
// clock; the backoff doubles with every quarantine, so a slot that
// flaps spends exponentially longer on probation each time.
type slotHealth struct {
	mu sync.Mutex

	state       string
	strikes     int // consecutive device-fault deaths while healthy
	quarantines int // lifetime quarantine count; drives the backoff

	probes          int     // successful probes this quarantine
	probeSeconds    float64 // modeled probe time this quarantine
	requiredSeconds float64 // modeled backoff to sit out
}

func newSlotHealth() *slotHealth { return &slotHealth{state: DeviceHealthy} }

// strike records one device-fault death. It returns true when the
// strike crossed the threshold and the slot just entered quarantine.
func (h *slotHealth) strike(threshold int, backoffBase float64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != DeviceHealthy {
		return false
	}
	h.strikes++
	if h.strikes < threshold {
		return false
	}
	h.state = DeviceQuarantined
	h.quarantines++
	h.probes = 0
	h.probeSeconds = 0
	h.requiredSeconds = backoffBase * float64(int64(1)<<uint(min(h.quarantines-1, 30)))
	return true
}

// clearStrikes resets the consecutive-death counter after a job
// completes cleanly on the slot.
func (h *slotHealth) clearStrikes() {
	h.mu.Lock()
	h.strikes = 0
	h.mu.Unlock()
}

// quarantined reports whether the slot is on probation.
func (h *slotHealth) quarantined() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == DeviceQuarantined
}

// probeResult accounts one health probe. It returns true when the probe
// budget is met and the slot just got reinstated.
func (h *slotHealth) probeResult(modeledSeconds float64, ok bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != DeviceQuarantined {
		return false
	}
	if !ok {
		// A failed probe restarts the budget: the device is still sick.
		h.probes = 0
		h.probeSeconds = 0
		return false
	}
	h.probes++
	h.probeSeconds += modeledSeconds
	if h.probeSeconds < h.requiredSeconds {
		return false
	}
	h.state = DeviceHealthy
	h.strikes = 0
	return true
}

// reinstate forces the slot back into service (the /admin override),
// clearing strikes. It returns true if the slot was quarantined.
func (h *slotHealth) reinstate() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	was := h.state == DeviceQuarantined
	h.state = DeviceHealthy
	h.strikes = 0
	h.probes = 0
	h.probeSeconds = 0
	return was
}

// status snapshots the slot for the wire.
func (h *slotHealth) status(slot int) DeviceStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := DeviceStatus{
		Slot:        slot,
		State:       h.state,
		Strikes:     h.strikes,
		Quarantines: h.quarantines,
	}
	if h.state == DeviceQuarantined {
		st.Probes = h.probes
		st.ProbeSeconds = h.probeSeconds
		st.RequiredSeconds = h.requiredSeconds
	}
	return st
}

// probe runs one health-probe job on the slot's private machine: a
// small deterministic partition that exercises the full GPU pipeline
// (upload, coarsen, CPU middle, uncoarsen, download). Its modeled
// seconds are the probation currency.
func (p *pool) probe(slot int) {
	p.s.reg.Add("quarantine.probes", 1)
	g, err := gen.Grid2D(32, 32)
	if err != nil {
		p.s.slotProbeDone(slot, 0, false)
		return
	}
	res, err := gpmetis.Partition(g, 4, gpmetis.Options{
		Machine:      p.machines[slot],
		GPUThreshold: 256, // force the GPU path on the small probe graph
	})
	if err != nil {
		p.s.slotProbeDone(slot, 0, false)
		return
	}
	p.s.slotProbeDone(slot, res.ModeledSeconds, true)
}

// slotProbeDone applies a probe outcome and maintains the quarantine
// gauge and counters.
func (s *Server) slotProbeDone(slot int, modeledSeconds float64, ok bool) {
	if s.pool.health[slot].probeResult(modeledSeconds, ok) {
		s.reg.Add("devices.quarantined", -1)
		s.reg.SetWith("slot_quarantined", slotLabels(slot), 0)
		s.reg.Add("quarantine.reinstated", 1)
		s.event(obs.EvReinstate, nil, slot, "probation served")
		s.log.Info("device slot reinstated after probation", "slot", slot)
	}
}
