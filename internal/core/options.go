// Package core implements GP-metis, the paper's contribution: a lock-free
// multilevel k-way graph partitioner for a heterogeneous CPU-GPU system
// (Section III).
//
// The pipeline mirrors Figure 1:
//
//  1. the CSR graph is copied to the GPU;
//  2. coarsening levels run on the GPU — a lock-free matching kernel, a
//     conflict-resolution kernel, the four-kernel prefix-sum construction
//     of the cmap array, and a contraction step that carves per-thread
//     output ranges with two exclusive scans over temp/temp2 and merges
//     adjacency lists either by sort or with a per-thread chained hash
//     table;
//  3. below a threshold the coarse graph moves to the CPU, where mt-metis
//     finishes coarsening, computes the initial k-way partition, and
//     refines the coarse levels;
//  4. the partitioned coarse graph returns to the GPU, which projects it
//     through the saved per-level cmap arrays and runs lock-free
//     refinement: a scan kernel fills per-partition move-request buffers
//     through a single atomic counter increment per request, and an
//     explore kernel (one thread per partition) commits the
//     highest-gain, balance-feasible requests; each pass runs two
//     iterations with opposite move directions.
//
// The GPU is the deterministic SIMT simulator of internal/gpu (see
// DESIGN.md §1 for why this substitution preserves the paper's claims).
package core

import (
	"errors"
	"fmt"

	"gpmetis/internal/checkpoint"
	"gpmetis/internal/fault"
	"gpmetis/internal/graph"
	"gpmetis/internal/obs"
)

// Sentinel errors, distinguishable with errors.Is. Usage errors (bad k,
// bad imbalance, malformed options) mean the call can never succeed as
// written; ErrGraphTooLarge is a capacity error — the same call can
// succeed on a bigger device, with more devices, or via CPU degradation
// (Options.Degrade).
var (
	// ErrBadK reports a partition count that is out of range for the
	// graph.
	ErrBadK = errors.New("core: invalid partition count")
	// ErrEmptyGraph reports an attempt to partition a graph with no
	// vertices.
	ErrEmptyGraph = errors.New("core: empty graph")
	// ErrBadImbalance reports a UBFactor below 1.0.
	ErrBadImbalance = errors.New("core: invalid imbalance factor")
	// ErrBadOption reports any other malformed Options field.
	ErrBadOption = errors.New("core: invalid option")
	// ErrGraphTooLarge reports that the graph does not fit the modeled
	// device memory (single- or multi-GPU) and degradation was off or
	// impossible.
	ErrGraphTooLarge = errors.New("core: graph exceeds device capacity")
	// ErrCanceled reports that Options.Cancel stopped the run at a level
	// boundary before it completed.
	ErrCanceled = errors.New("core: run canceled")
)

// MergeStrategy selects how the contraction kernel merges the adjacency
// lists of a collapsed pair (paper Section III.A).
type MergeStrategy int

// Contraction merge strategies.
const (
	// HashMerge uses a per-thread chained hash table; the paper's default
	// for sparse graphs ("the hash table approach is faster than the
	// sorting").
	HashMerge MergeStrategy = iota
	// SortMerge sorts the concatenated neighbor lists and removes
	// duplicates; needed when the hash table would not fit in memory.
	SortMerge
)

// String names the merge strategy.
func (s MergeStrategy) String() string {
	switch s {
	case HashMerge:
		return "hash"
	case SortMerge:
		return "sort"
	default:
		return fmt.Sprintf("MergeStrategy(%d)", int(s))
	}
}

// Distribution selects how vertices map to GPU threads (paper Figure 2).
type Distribution int

// Vertex-to-thread distributions.
const (
	// Cyclic gives thread t the vertices t, t+T, t+2T, ... so that
	// consecutive lanes touch consecutive array entries: the coalesced
	// layout of Figure 2.
	Cyclic Distribution = iota
	// Blocked gives thread t one contiguous chunk; lanes then touch
	// addresses a chunk apart and loads do not coalesce. Provided for the
	// coalescing ablation.
	Blocked
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Cyclic:
		return "cyclic"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Options configures a GP-metis run. Construct with DefaultOptions.
type Options struct {
	// Seed drives all randomized decisions (CPU side; the GPU kernels are
	// deterministic).
	Seed int64
	// UBFactor is the allowed imbalance (paper: 1.03).
	UBFactor float64
	// GPUThreshold is the vertex count below which coarsening (and,
	// mirrored, un-coarsening) moves to the CPU: "the last level in which
	// the coarsening of the graph executes faster on the GPU than the
	// CPU".
	GPUThreshold int
	// CoarsenTo*k is where the CPU-side coarsening stops.
	CoarsenTo int
	// RefineIters bounds GPU refinement passes per level.
	RefineIters int
	// Merge selects the contraction merge strategy.
	Merge MergeStrategy
	// Distribution selects the vertex-to-thread mapping.
	Distribution Distribution
	// MaxThreads caps the logical threads per kernel launch; the driver
	// lowers the count as the graph shrinks (Section III.A: "we reduce
	// the number of launched threads in the following levels").
	MaxThreads int
	// CPUThreads is the thread count for the mt-metis CPU phases.
	CPUThreads int
	// Tracer, when non-nil, records the run as a span tree with
	// per-level, per-kernel, and per-transfer detail (see internal/obs).
	// The nil default disables tracing at the cost of one pointer check
	// per hook point.
	Tracer *obs.Tracer
	// Profile builds the per-kernel roofline report (Result.Profile; see
	// internal/prof) from the kernel launch spans of the run's trace,
	// tracing into a private tracer when Tracer is nil. Single-GPU runs
	// only: the multi-GPU fleet stage's kernel spans are auxiliary (its
	// per-device timelines charge maxima, so per-launch sums would not
	// reconcile), though the single-GPU tail of a multi-GPU run still
	// profiles.
	Profile bool
	// Faults, when non-nil, injects deterministic failures at the
	// substrate's named sites (see internal/fault). Nil disables all
	// fault paths at zero cost.
	Faults *fault.Injector
	// Retry bounds in-place retries of transient kernel/transfer faults;
	// the zero value means no retries (first transient fault kills the
	// device). Ignored when Faults is nil.
	Retry fault.RetryPolicy
	// Degrade enables the resilience ladder: capacity faults and device
	// death fall back to the mt-metis CPU pipeline instead of failing
	// the run (the result is then flagged Result.Degraded). Off by
	// default so capacity errors stay errors, matching the paper's
	// single-device assumption.
	Degrade bool
	// Verify enables paranoid invariant checking at every level
	// boundary: CSR well-formedness, cmap surjectivity, weight
	// conservation across contraction, and edge-cut conservation across
	// projection. Verification runs on the host and does not charge the
	// modeled timeline.
	Verify bool
	// Cancel, when non-nil, is polled at every level boundary (each GPU
	// coarsening level, the CPU handoff, each uncoarsening level). A
	// non-nil return aborts the run with an error wrapping both
	// ErrCanceled and the returned cause (so errors.Is works against
	// either, e.g. context.Canceled from a serving layer). Cancellation
	// is cooperative: the run stops at the next boundary, never
	// mid-kernel, and is never absorbed by the Degrade ladder.
	Cancel func() error
	// Checkpoint, when non-nil, receives a pipeline snapshot at every
	// completed level boundary (each GPU coarsening level, the end of
	// the CPU middle phase, each GPU uncoarsening level). Snapshotting
	// runs on the host outside the modeled clock, so a checkpointed run
	// reports the same modeled seconds as an unhooked one. A non-nil
	// return fails the run; hooks that prefer to continue non-durably
	// (e.g. on ErrDurability) should swallow the error and return nil.
	// Degraded (CPU-fallback) execution does not checkpoint: it is
	// already running on the host from rescued state.
	Checkpoint func(*checkpoint.State) error
	// Resume, when non-nil, restores the run from a snapshot instead of
	// starting from the input graph. The snapshot must come from a run
	// with the same graph, k, and determinism-relevant options
	// (checkpoint.ErrMismatch otherwise); the resumed run then produces
	// a bit-identical partition and modeled time to an uninterrupted
	// one. Restoration itself charges nothing to the modeled clock and
	// burns no fault coins.
	Resume *checkpoint.State
}

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		UBFactor:     1.03,
		GPUThreshold: 16 * 1024,
		CoarsenTo:    30,
		RefineIters:  6,
		Merge:        HashMerge,
		Distribution: Cyclic,
		MaxThreads:   1 << 18,
		CPUThreads:   8,
	}
}

func (o *Options) validate(g *graph.Graph, k int) error {
	switch {
	case k < 1:
		return fmt.Errorf("%w: k must be >= 1, got %d", ErrBadK, k)
	case g.NumVertices() == 0:
		return fmt.Errorf("%w: cannot partition it", ErrEmptyGraph)
	case k > g.NumVertices():
		return fmt.Errorf("%w: k=%d exceeds vertex count %d", ErrBadK, k, g.NumVertices())
	case o.UBFactor < 1.0:
		return fmt.Errorf("%w: UBFactor %g must be >= 1.0", ErrBadImbalance, o.UBFactor)
	case o.GPUThreshold < 1:
		return fmt.Errorf("%w: GPUThreshold %d must be >= 1", ErrBadOption, o.GPUThreshold)
	case o.CoarsenTo < 1:
		return fmt.Errorf("%w: CoarsenTo %d must be >= 1", ErrBadOption, o.CoarsenTo)
	case o.RefineIters < 0:
		return fmt.Errorf("%w: RefineIters %d must be >= 0", ErrBadOption, o.RefineIters)
	case o.MaxThreads < 32:
		return fmt.Errorf("%w: MaxThreads %d must be >= one warp", ErrBadOption, o.MaxThreads)
	case o.CPUThreads < 1:
		return fmt.Errorf("%w: CPUThreads %d must be >= 1", ErrBadOption, o.CPUThreads)
	case o.Merge != HashMerge && o.Merge != SortMerge:
		return fmt.Errorf("%w: unknown merge strategy %d", ErrBadOption, int(o.Merge))
	case o.Distribution != Cyclic && o.Distribution != Blocked:
		return fmt.Errorf("%w: unknown distribution %d", ErrBadOption, int(o.Distribution))
	}
	return nil
}
