package server

import (
	"sync/atomic"
	"time"

	"gpmetis/internal/obs"
)

// Brownout levels. The level is a pure function of the queue-wait burn
// at each evaluation — the ladder is not hysteretic, so recovery drops
// straight back to off once the window clears.
const (
	brownoutOff  = 0 // normal service
	brownoutShed = 1 // shed over-share queued work of low-weight tenants
)

// BrownoutConfig tunes the overload ladder. The ladder reuses the SLO
// engine's burn-rate machinery with queue wait as the latency
// objective: a dequeue whose wait exceeded QueueWait spends error
// budget, and a fast-window latency burn above 1 (once MinSamples
// dequeues are in the window) arms shedding (level 1).
type BrownoutConfig struct {
	// QueueWait is the per-job queue-wait objective (default 500ms).
	QueueWait time.Duration
	// Target is the fraction of dequeues that must meet QueueWait
	// (default 0.9).
	Target float64
	// FastWindow is the burn-rate window (default 15s — queue pressure
	// moves much faster than job outcomes).
	FastWindow time.Duration
	// MinSamples is how many dequeues the fast window must hold before
	// the ladder may leave level 0 (default 5); it keeps one slow dequeue
	// after an idle stretch from tripping a shed.
	MinSamples int
	// Disable turns the ladder off entirely (level pinned to 0).
	Disable bool
}

func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.QueueWait <= 0 {
		c.QueueWait = 500 * time.Millisecond
	}
	if c.Target <= 0 || c.Target >= 1 {
		c.Target = 0.9
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 15 * time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	return c
}

// brownout is the overload ladder's state: a queue-wait SLO evaluator
// plus the current level. Level transitions are decided in evaluate,
// called from admission and from every dequeue.
type brownout struct {
	cfg      BrownoutConfig
	slo      *obs.SLO
	level    atomic.Int64
	disabled bool
}

func newBrownout(cfg BrownoutConfig, now func() time.Time) *brownout {
	cfg = cfg.withDefaults()
	b := &brownout{cfg: cfg, disabled: cfg.Disable}
	if b.disabled {
		return b
	}
	b.slo = obs.NewSLO(obs.SLOConfig{
		LatencyThreshold: cfg.QueueWait,
		LatencyTarget:    cfg.Target,
		// Availability plays no role in the queue-wait objective; pin the
		// budget wide open so only latency burn drives the ladder.
		AvailabilityTarget: 0.5,
		FastWindow:         cfg.FastWindow,
		// Only the fast window decides the level; a slow window of the
		// same length keeps no samples beyond it.
		SlowWindow: cfg.FastWindow,
		Now:        now,
	})
	return b
}

// observeWait feeds one dequeue's queue wait into the burn window.
func (b *brownout) observeWait(wait time.Duration) {
	if b.disabled {
		return
	}
	b.slo.Record(wait, false)
}

// Level reports the current rung without re-evaluating.
func (b *brownout) Level() int {
	if b.disabled {
		return brownoutOff
	}
	return int(b.level.Load())
}

// evaluate recomputes the rung from the fast window's queue-wait burn
// and reports the previous and new levels.
func (b *brownout) evaluate() (prev, level int) {
	if b.disabled {
		return brownoutOff, brownoutOff
	}
	snap := b.slo.Snapshot()
	level = brownoutOff
	if snap.Fast.Jobs >= b.cfg.MinSamples && snap.Fast.LatencyBurn > 1 {
		level = brownoutShed
	}
	prev = int(b.level.Swap(int64(level)))
	return prev, level
}
