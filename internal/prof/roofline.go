// Package prof is the kernel-level profiler of the GP-metis pipeline. It
// reads no hook of its own: every kernel launch on a traced device
// already emits one leaf span holding its name, grid size, modeled
// seconds, and counter delta (gpu.TraceLaunch), and the profile is one
// reduction over those spans — rolled up per kernel and classified
// against the modeled machine's roofline.
//
// The profiler reuses the cost model's own decomposition
// (gpu.RooflineTerms): a kernel's modeled duration is launch overhead
// plus the max of its compute, memory-bandwidth, and latency-hiding
// terms, plus serialized atomic time. Re-deriving those terms from the
// recorded counters tells you *why* a kernel is slow (memory-bound at 41%
// coalescing vs compute-bound with 3x divergence), not just that it is.
package prof

import (
	"fmt"
	"sort"

	"gpmetis/internal/gpu"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// Bound classifies which roofline term dominates a kernel's modeled time.
type Bound string

// Roofline classifications, by dominant cost-model term.
const (
	// BoundMemory: the transaction-bandwidth term dominates.
	BoundMemory Bound = "memory"
	// BoundCompute: the instruction-throughput term dominates.
	BoundCompute Bound = "compute"
	// BoundLatency: unhidden transaction latency dominates (too few warps
	// in flight to cover memory latency).
	BoundLatency Bound = "latency"
	// BoundAtomic: serialized atomic conflict time dominates.
	BoundAtomic Bound = "atomic"
	// BoundLaunch: fixed per-launch overhead dominates (many tiny grids).
	BoundLaunch Bound = "launch"
)

// KernelProfile is the per-kernel rollup: every launch of one kernel name
// across all levels, with the roofline decomposition re-derived from the
// counters and the dominant term named.
type KernelProfile struct {
	Kernel   string `json:"kernel"`
	Launches int    `json:"launches"`
	Threads  int64  `json:"threads"`
	// Seconds is the summed modeled duration the device actually charged.
	Seconds float64 `json:"seconds"`
	// Stats is the summed counter deltas of all launches.
	Stats gpu.Stats `json:"stats"`

	// Roofline decomposition, in seconds, re-derived from Stats with the
	// cost model's own formulas (gpu.RooflineTerms). The terms do
	// not sum to Seconds — the model takes the max of the first three per
	// launch — they show which wall the kernel ran into.
	ComputeSeconds float64 `json:"compute_seconds"`
	MemorySeconds  float64 `json:"memory_seconds"`
	LatencySeconds float64 `json:"latency_seconds"`
	AtomicSeconds  float64 `json:"atomic_seconds"`
	LaunchSeconds  float64 `json:"launch_seconds"`

	// Bound names the dominant term.
	Bound Bound `json:"bound"`

	// Derived ratios (gpu.Stats accessors).
	CoalescingEfficiency     float64 `json:"coalescing_efficiency"`
	DivergenceFactor         float64 `json:"divergence_factor"`
	AtomicSerializationRatio float64 `json:"atomic_serialization_ratio"`

	// ArithmeticIntensity is charged warp-lane instructions per
	// transaction byte; the machine's ridge point (lane throughput over
	// memory bandwidth) separates memory- from compute-bound territory.
	ArithmeticIntensity float64 `json:"arithmetic_intensity"`
	// AchievedBandwidth is transaction bytes over the kernel's charged
	// seconds; PeakFraction is its share of the machine's modeled
	// bandwidth.
	AchievedBandwidth float64 `json:"achieved_bandwidth_bytes_per_sec"`
	PeakFraction      float64 `json:"peak_bandwidth_fraction"`

	// Hints are rule-derived optimization suggestions (see hints).
	Hints []string `json:"hints,omitempty"`
}

// classify names the dominant roofline term.
func classify(r gpu.Roofline) Bound {
	bound, max := BoundCompute, r.Compute
	for _, c := range []struct {
		b Bound
		v float64
	}{
		{BoundMemory, r.Memory},
		{BoundLatency, r.Latency},
		{BoundAtomic, r.Atomic},
		{BoundLaunch, r.Launch},
	} {
		if c.v > max {
			bound, max = c.b, c.v
		}
	}
	return bound
}

// Hint thresholds: a ratio must clear these before the corresponding
// suggestion is emitted, so well-behaved kernels stay hint-free.
const (
	// hintCoalescing: more than one transaction per four raw accesses
	// means warps are scattering (perfect coalescing is 1/32).
	hintCoalescing = 0.25
	// hintDivergence: warps run >= 1.5x their average lane.
	hintDivergence = 1.5
	// hintAtomic: over a quarter of atomics pay serialized conflicts.
	hintAtomic = 0.25
	// hintPeakBW: a memory-bound kernel already sustaining >= 60% of the
	// modeled bandwidth cannot be fixed by coalescing alone.
	hintPeakBW = 0.6
)

// hints derives the optimization suggestions for one kernel profile.
func hints(k *KernelProfile) []string {
	var h []string
	if k.Stats.Accesses > 0 && k.CoalescingEfficiency > hintCoalescing {
		h = append(h, fmt.Sprintf(
			"%.0f%% coalescing — scattered warp access; candidate for sorted adjacency or cyclic distribution",
			100*k.CoalescingEfficiency))
	}
	if k.DivergenceFactor > hintDivergence {
		h = append(h, fmt.Sprintf(
			"%.1fx warp divergence — lanes do uneven work; candidate for degree-bucketed launches",
			k.DivergenceFactor))
	}
	if k.AtomicSerializationRatio > hintAtomic {
		h = append(h, fmt.Sprintf(
			"%.0f%% of atomics serialize — hot addresses; candidate for privatized per-warp counters",
			100*k.AtomicSerializationRatio))
	}
	if k.Bound == BoundMemory && k.PeakFraction >= hintPeakBW && k.CoalescingEfficiency <= hintCoalescing {
		h = append(h, fmt.Sprintf(
			"sustains %.0f%% of modeled bandwidth while coalesced — reduce bytes moved, not access pattern",
			100*k.PeakFraction))
	}
	if k.Bound == BoundLaunch {
		h = append(h, fmt.Sprintf(
			"launch overhead dominates across %d launches — candidate for kernel fusion or batching",
			k.Launches))
	}
	if k.Bound == BoundLatency {
		h = append(h, "unhidden memory latency — grid too small to cover transaction latency; merge levels or widen launches")
	}
	return h
}

// profiles rolls the kernel launch spans beneath root up by kernel name,
// classifies each against the machine's roofline, and returns them sorted
// by descending seconds, with the summed seconds of every launch.
func profiles(m *perfmodel.Machine, t *obs.Tracer, root *obs.Span) ([]KernelProfile, float64) {
	byName := map[string]*KernelProfile{}
	var total float64
	for _, sp := range t.Spans() {
		if sp.Aux || !beneath(sp, root) {
			continue
		}
		st, sec, ok := gpu.LaunchStats(sp)
		if !ok {
			continue
		}
		k, ok := byName[sp.Name]
		if !ok {
			k = &KernelProfile{Kernel: sp.Name}
			byName[sp.Name] = k
		}
		k.Launches++
		k.Threads += st.Threads
		k.Seconds += sec
		k.Stats = k.Stats.Add(st)
		total += sec
	}
	out := make([]KernelProfile, 0, len(byName))
	for _, k := range byName {
		r := gpu.RooflineTerms(m, k.Stats)
		k.ComputeSeconds, k.MemorySeconds, k.LatencySeconds, k.AtomicSeconds, k.LaunchSeconds =
			r.Compute, r.Memory, r.Latency, r.Atomic, r.Launch
		k.Bound = classify(r)
		k.CoalescingEfficiency = k.Stats.CoalescingEfficiency()
		k.DivergenceFactor = k.Stats.DivergenceFactor()
		k.AtomicSerializationRatio = k.Stats.AtomicSerializationRatio()
		bytes := float64(k.Stats.Transactions) * float64(m.GPU.TransactionBytes)
		if bytes > 0 {
			k.ArithmeticIntensity = float64(k.Stats.WarpInstructions) * float64(m.GPU.WarpSize) / bytes
		}
		if k.Seconds > 0 {
			k.AchievedBandwidth = bytes / k.Seconds
			k.PeakFraction = k.AchievedBandwidth / m.GPU.MemBytesPerSec
		}
		k.Hints = hints(k)
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out, total
}

// beneath reports whether root is a proper ancestor of sp.
func beneath(sp, root *obs.Span) bool {
	for p := sp.Parent(); p != nil; p = p.Parent() {
		if p == root {
			return true
		}
	}
	return false
}
