// Package gpmetis is a multilevel k-way graph partitioning library that
// reproduces "Parallel Graph Partitioning on a CPU-GPU Architecture"
// (Goodarzi, Burtscher, Goswami; IPPS/IPDPS-W 2016).
//
// It bundles eight partitioners behind one API:
//
//   - GPMetis — the paper's contribution: a lock-free hybrid partitioner
//     whose parallelism-rich coarsening and un-coarsening levels run on a
//     (simulated) GPU and whose coarse levels run on a multicore CPU
//     (Options.Devices > 1 adds the paper's future-work multi-GPU mode);
//   - Metis — the serial multilevel baseline (Karypis & Kumar);
//   - MtMetis — the shared-memory parallel baseline (LaSalle & Karypis);
//   - ParMetis — the distributed-memory baseline over a message-passing
//     substrate;
//   - PTScotch — a PT-Scotch-style distributed partitioner (extension);
//   - Gmetis — the Galois-based speculative partitioner of Section II.C;
//   - Jostle — coarsen-to-k with combined balancing and interface-region
//     refinement (Section II.A/B);
//   - Spectral — recursive spectral bisection, the pre-multilevel
//     baseline of the paper's reference [5].
//
// All of them execute their algorithms for real and report modeled runtimes
// on a shared machine model resembling the paper's testbed (8-core Xeon
// E5540 + GTX Titan); see DESIGN.md for the substitution argument.
//
// Quick start:
//
//	g, _ := gpmetis.Delaunay(100_000, 1)
//	res, _ := gpmetis.Partition(g, 64, gpmetis.Options{})
//	fmt.Println(res.EdgeCut, res.ModeledSeconds)
package gpmetis

import (
	"fmt"
	"io"

	"gpmetis/internal/checkpoint"
	"gpmetis/internal/core"
	"gpmetis/internal/fault"
	"gpmetis/internal/gmetis"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/jostle"
	"gpmetis/internal/metis"
	"gpmetis/internal/mtmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/parmetis"
	"gpmetis/internal/perfmodel"
	"gpmetis/internal/prof"
	"gpmetis/internal/ptscotch"
	"gpmetis/internal/spectral"
)

// Graph is an undirected vertex- and edge-weighted graph in CSR form.
type Graph = graph.Graph

// Builder incrementally assembles a Graph from edges.
type Builder = graph.Builder

// Machine is the modeled CPU-GPU-network system all partitioners charge.
type Machine = perfmodel.Machine

// Timeline records the modeled phase durations of a run.
type Timeline = perfmodel.Timeline

// Tracer collects a span tree and metrics over a run's modeled timeline;
// see internal/obs. A nil *Tracer disables all instrumentation at the cost
// of one pointer check per hook.
type Tracer = obs.Tracer

// NewTracer returns an enabled Tracer ready to pass in Options.Tracer.
func NewTracer() *Tracer { return obs.New() }

// ProfileReport is one run's kernel-level profile: per-kernel roofline
// rollups (launches, modeled seconds, derived counter ratios, dominant
// cost-model term, optimization hints) plus the reconciliation pair
// tying the profile back to the run timeline. Produced by GP-metis runs
// with Options.Profile set; see internal/prof.
type ProfileReport = prof.Report

// KernelProfile is one kernel's rollup within a ProfileReport.
type KernelProfile = prof.KernelProfile

// WriteChromeTrace serializes a tracer's spans in the Chrome trace_event
// JSON format (load in chrome://tracing or https://ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, t *Tracer) error { return obs.WriteChromeTrace(w, t) }

// WriteMetricsJSON serializes a tracer's counters and per-span aggregates
// as a flat JSON report; extra entries are merged in verbatim.
func WriteMetricsJSON(w io.Writer, t *Tracer, extra map[string]any) error {
	return obs.WriteMetricsJSON(w, t, extra)
}

// LevelTable renders a tracer's per-level coarsening/uncoarsening spans as
// a human-readable table.
func LevelTable(t *Tracer) string { return obs.LevelTable(t) }

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FaultInjector deterministically injects failures at the pipeline's
// named fault sites (GPU allocations, kernel launches, PCIe transfers,
// whole devices, MPI ranks, contraction hash tables). Two runs with the
// same graph, options, and injector seed behave identically — same
// partition, same modeled time, same fault events.
type FaultInjector = fault.Injector

// FaultEvent records one fault the pipeline absorbed (retry exhaustion,
// hash fallback, CPU degradation, shard redistribution) and what it did
// about it.
type FaultEvent = core.FaultEvent

// NewFaultInjector returns an empty injector; arm sites on it directly or
// use ParseFaultScenario for the textual form.
func NewFaultInjector(seed int64) *FaultInjector { return fault.New(seed) }

// ParseFaultScenario builds an injector from a scenario spec, the format
// behind the gpmetis -faults flag: ';'-separated site:key=val[,key=val]
// entries, e.g. "pcie.transfer:p=0.2;gpu.memcap:cap=256M". An empty spec
// returns a nil injector (injection disabled).
func ParseFaultScenario(seed int64, spec string) (*FaultInjector, error) {
	return fault.Parse(seed, spec)
}

// Typed validation and capacity errors, testable with errors.Is: usage
// errors (bad k, bad imbalance, empty graph, malformed option) are
// permanent, ErrGraphTooLarge marks a capacity failure that a larger
// device — or Options.Degrade — could absorb, and ErrCanceled reports a
// run stopped by Options.Cancel before completing.
var (
	ErrBadK          = core.ErrBadK
	ErrBadImbalance  = core.ErrBadImbalance
	ErrEmptyGraph    = core.ErrEmptyGraph
	ErrBadOption     = core.ErrBadOption
	ErrGraphTooLarge = core.ErrGraphTooLarge
	ErrCanceled      = core.ErrCanceled
)

// Checkpoint is one GP-metis pipeline snapshot, taken at a level
// boundary by Options.Checkpoint and fed back through Options.Resume.
// See internal/checkpoint for the state it carries; the on-disk form is
// a versioned, checksummed binary codec.
type Checkpoint = checkpoint.State

// Recovery errors, testable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint that failed decoding
	// (bad magic, version skew, truncation, checksum mismatch).
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointMismatch reports a checkpoint that decoded cleanly
	// but belongs to a different (graph, options) pair.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
	// ErrDurability reports that persistent state (a checkpoint file, a
	// journal append) could not be made durable; callers are expected to
	// degrade to non-durable operation rather than crash.
	ErrDurability = checkpoint.ErrDurability
)

// WriteCheckpointFile atomically persists a snapshot (temp file + fsync
// + rename). Failures wrap ErrDurability.
func WriteCheckpointFile(path string, c *Checkpoint) error { return checkpoint.WriteFile(path, c) }

// ReadCheckpointFile loads a snapshot written by WriteCheckpointFile;
// decode failures wrap ErrCheckpointCorrupt.
func ReadCheckpointFile(path string) (*Checkpoint, error) { return checkpoint.ReadFile(path) }

// ReadGraph parses a graph in the Chaco/Metis text format used by the
// DIMACS challenges. It reads r to the end, then parses in one linear
// pass, rejecting out-of-range, duplicate or self-loop neighbors, edges
// listed from one end only or with unequal weights, and a header whose
// edge count disagrees with the file. Allocation is bounded by the
// input's size.
func ReadGraph(r io.Reader) (*Graph, error) { return gio.Read(r) }

// WriteGraph serializes a graph in Chaco/Metis format.
func WriteGraph(w io.Writer, g *Graph) error { return gio.Write(w, g) }

// DefaultMachine returns the paper-testbed machine model (8-core Xeon
// E5540, GTX Titan, PCIe 2.0, 10 Gb/s cluster network).
func DefaultMachine() *Machine { return perfmodel.Default() }

// EdgeCut returns the weight of edges crossing partitions.
func EdgeCut(g *Graph, part []int) int { return graph.EdgeCut(g, part) }

// Imbalance returns max partition weight over average partition weight.
func Imbalance(g *Graph, part []int, k int) float64 { return graph.Imbalance(g, part, k) }

// CommunicationVolume returns the halo-exchange volume of a partition:
// per vertex, the number of distinct foreign partitions among its
// neighbors, summed over all vertices.
func CommunicationVolume(g *Graph, part []int, k int) int {
	return graph.CommunicationVolume(g, part, k)
}

// ReadGraphGR parses the DIMACS9 shortest-path ".gr" format (the native
// format of the paper's USA road-network input).
func ReadGraphGR(r io.Reader) (*Graph, error) { return gio.ReadGR(r) }

// Generators for the paper's Table I input families and common test
// graphs. All are deterministic for a given seed.
var (
	// Delaunay builds a Delaunay triangulation of n random points.
	Delaunay = gen.Delaunay
	// LDoor builds a 3-D FEM stiffness graph (degree ~48).
	LDoor = gen.LDoor
	// HugeBubble builds a 2-D foam mesh (degree ~3).
	HugeBubble = gen.HugeBubble
	// RoadNetwork builds a road-network-like planar graph (degree ~2.4).
	RoadNetwork = gen.RoadNetwork
	// Grid2D builds a rows x cols grid mesh.
	Grid2D = gen.Grid2D
	// Grid3D builds an x*y*z grid mesh.
	Grid3D = gen.Grid3D
	// RMAT builds a scale-free graph with 2^scale vertices.
	RMAT = gen.RMAT
)

// MergeStrategy selects GP-metis's contraction merge strategy.
type MergeStrategy = core.MergeStrategy

// GP-metis contraction merge strategies (paper Section III.A).
const (
	// HashMerge uses per-thread chained hash tables (default, faster on
	// sparse graphs).
	HashMerge = core.HashMerge
	// SortMerge sorts and compacts the concatenated neighbor lists.
	SortMerge = core.SortMerge
)

// Algorithm selects the partitioner.
type Algorithm int

// Available partitioners.
const (
	// GPMetis is the paper's hybrid CPU-GPU partitioner (default).
	GPMetis Algorithm = iota
	// Metis is the serial multilevel baseline.
	Metis
	// MtMetis is the shared-memory parallel baseline.
	MtMetis
	// ParMetis is the distributed-memory baseline.
	ParMetis
	// PTScotch is a PT-Scotch-style distributed partitioner (Monte-Carlo
	// matching, folding, banded refinement) — an extension beyond the
	// paper's measured comparison; see internal/ptscotch.
	PTScotch
	// Gmetis is the Galois-based speculative-parallel partitioner the
	// paper's Section II.C describes; see internal/gmetis.
	Gmetis
	// Jostle is a Jostle-style partitioner (coarsen to k, combined
	// balancing/refinement, interface regions); see internal/jostle.
	Jostle
	// Spectral is recursive spectral bisection (the paper's reference
	// [5]), the pre-multilevel baseline; see internal/spectral.
	Spectral
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case GPMetis:
		return "GP-metis"
	case Metis:
		return "Metis"
	case MtMetis:
		return "mt-metis"
	case ParMetis:
		return "ParMetis"
	case PTScotch:
		return "PT-Scotch"
	case Gmetis:
		return "Gmetis"
	case Jostle:
		return "Jostle"
	case Spectral:
		return "Spectral"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Partition. The zero value selects GP-metis with the
// paper's experimental parameters (3% imbalance, seed 1).
type Options struct {
	// Algorithm selects the partitioner (default GPMetis).
	Algorithm Algorithm
	// Seed drives randomized decisions; 0 means 1.
	Seed int64
	// UBFactor is the allowed imbalance; 0 means the paper's 1.03.
	UBFactor float64
	// Machine overrides the modeled system; nil means DefaultMachine().
	Machine *Machine
	// Advanced knobs; zero values take each partitioner's defaults.
	GPUThreshold int                // GP-metis: CPU handoff size
	Merge        core.MergeStrategy // GP-metis: contraction merge strategy
	Threads      int                // mt-metis / GP-metis CPU threads
	Procs        int                // ParMetis / PT-Scotch ranks
	// Devices > 1 runs GP-metis across multiple modeled GPUs (the
	// paper's future-work extension), allowing graphs larger than one
	// device's memory.
	Devices int
	// Tracer, when non-nil, records a span tree and metrics over the run's
	// modeled timeline (GPMetis and MtMetis; other algorithms ignore it).
	// Nil disables instrumentation entirely.
	Tracer *Tracer
	// Profile enables the kernel-level profiler (GPMetis only; other
	// algorithms launch no kernels and ignore it). The run then rolls its
	// kernel launch spans up into the per-kernel roofline report in
	// Result.Profile, tracing privately when Tracer is nil. With
	// Devices > 1 only the single-GPU tail of the pipeline is profiled.
	Profile bool
	// Faults, when non-nil, injects deterministic failures at the
	// pipeline's fault sites (GPMetis single- and multi-GPU, ParMetis,
	// PTScotch; other algorithms ignore it). Nil disables injection with
	// zero overhead.
	Faults *FaultInjector
	// Degrade lets GP-metis absorb GPU capacity failures and device
	// deaths by degrading to the CPU pipeline (Result.Degraded reports
	// it) instead of failing the run.
	Degrade bool
	// Verify enables paranoid invariant checking at every level boundary
	// (GPMetis, MtMetis): cmap surjectivity, weight conservation, and
	// edge-cut conservation across projection. Violations fail the run;
	// checks run outside the modeled clock.
	Verify bool
	// Cancel, when non-nil, is polled at level boundaries (GPMetis; other
	// algorithms run to completion once started). A non-nil return aborts
	// the run with an error matching both ErrCanceled and the returned
	// cause — pass ctx.Err to make a run honor a context.Context.
	Cancel func() error
	// Checkpoint, when non-nil, receives a pipeline snapshot at every
	// completed level boundary (GPMetis single-GPU only; the multi-GPU
	// and baseline paths ignore it). Snapshotting runs outside the
	// modeled clock. Persist snapshots with WriteCheckpointFile; a
	// non-nil return fails the run, so hooks that prefer to continue
	// non-durably should swallow ErrDurability and return nil.
	Checkpoint func(*Checkpoint) error
	// Resume, when non-nil, restores a GPMetis run from a snapshot
	// instead of starting over. The snapshot must come from a run with
	// the same graph, k, and determinism-relevant options (ErrMismatch
	// otherwise); the resumed run is bit-identical — same partition,
	// same edge cut, same modeled seconds — to an uninterrupted one.
	Resume *Checkpoint
}

// Result reports a partitioning run.
type Result struct {
	// Part assigns each vertex a partition in [0,k).
	Part []int
	// EdgeCut is the achieved cut weight.
	EdgeCut int
	// ModeledSeconds is the modeled runtime on the shared machine model.
	ModeledSeconds float64
	// Timeline breaks the modeled runtime into phases.
	Timeline Timeline
	// MatchConflicts / MatchAttempts expose the lock-free matching
	// conflict counts for the algorithms that track them (GPMetis,
	// MtMetis); both stay 0 elsewhere.
	MatchConflicts, MatchAttempts int
	// Degraded reports that GP-metis abandoned the GPU mid-run and
	// finished on the CPU pipeline; DegradedReason says why and at which
	// level ("gpu-oom@coarsen.L3", "device-lost@uncoarsen.L1").
	Degraded       bool
	DegradedReason string
	// FaultEvents lists every fault the run absorbed, in order, with the
	// modeled time at which each fired.
	FaultEvents []FaultEvent
	// Profile is the kernel-level roofline report, non-nil only for
	// GP-metis runs with Options.Profile set. Its KernelSeconds reconcile
	// exactly with the GPU portion of Timeline for unfaulted, un-resumed
	// single-GPU runs.
	Profile *ProfileReport
}

// MatchConflictRate returns the fraction of lock-free match proposals the
// resolve step rejected, or 0 when no proposals were tracked.
func (r *Result) MatchConflictRate() float64 {
	if r.MatchAttempts == 0 {
		return 0
	}
	return float64(r.MatchConflicts) / float64(r.MatchAttempts)
}

// Partition divides g into k balanced parts minimizing edge cut, using
// the selected algorithm on the modeled machine.
func Partition(g *Graph, k int, o Options) (*Result, error) {
	// Validate the inputs common to every algorithm here, so the exported
	// sentinels hold uniformly: each bundled partitioner has its own
	// internal checks, but only the GP-metis core wraps the typed errors.
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("%w: cannot partition it", ErrEmptyGraph)
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k must be >= 1, got %d", ErrBadK, k)
	}
	if o.UBFactor != 0 && o.UBFactor < 1 {
		return nil, fmt.Errorf("%w: UBFactor %g must be >= 1.0", ErrBadImbalance, o.UBFactor)
	}
	m := o.Machine
	if m == nil {
		m = DefaultMachine()
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: Machine: %v", ErrBadOption, err)
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	ub := o.UBFactor
	if ub == 0 {
		ub = 1.03
	}

	switch o.Algorithm {
	case GPMetis:
		co := core.DefaultOptions()
		co.Seed = seed
		co.UBFactor = ub
		co.Merge = o.Merge
		if o.GPUThreshold > 0 {
			co.GPUThreshold = o.GPUThreshold
		}
		if o.Threads > 0 {
			co.CPUThreads = o.Threads
		}
		co.Tracer = o.Tracer
		co.Profile = o.Profile
		co.Faults = o.Faults
		co.Degrade = o.Degrade
		co.Verify = o.Verify
		co.Cancel = o.Cancel
		co.Checkpoint = o.Checkpoint
		co.Resume = o.Resume
		var r *core.Result
		var err error
		if o.Devices > 1 {
			r, err = core.PartitionMulti(g, k, o.Devices, co, m)
		} else {
			r, err = core.Partition(g, k, co, m)
		}
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline,
			MatchConflicts: r.MatchConflicts, MatchAttempts: r.MatchAttempts,
			Degraded: r.Degraded, DegradedReason: r.DegradedReason, FaultEvents: r.Events,
			Profile: r.Profile}, nil
	case Metis:
		mo := metis.DefaultOptions()
		mo.Seed = seed
		mo.UBFactor = ub
		r, err := metis.Partition(g, k, mo, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	case MtMetis:
		mo := mtmetis.DefaultOptions()
		mo.Seed = seed
		mo.UBFactor = ub
		if o.Threads > 0 {
			mo.Threads = o.Threads
		}
		mo.Verify = o.Verify
		root := o.Tracer.Root("mtmetis.run", "host", 0,
			obs.Int("vertices", int64(g.NumVertices())),
			obs.Int("edges", int64(g.NumEdges())),
			obs.Int("k", int64(k)))
		mo.Trace = root
		r, err := mtmetis.Partition(g, k, mo, m)
		if err != nil {
			return nil, err
		}
		res := &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline,
			MatchConflicts: r.MatchConflicts, MatchAttempts: r.MatchAttempts}
		if root != nil {
			root.Set(
				obs.Int("edge_cut", int64(res.EdgeCut)),
				obs.Float("modeled_seconds", res.ModeledSeconds),
				obs.Float("conflict_rate", res.MatchConflictRate()))
			root.EndAt(r.Timeline.Total())
		}
		return res, nil
	case ParMetis:
		po := parmetis.DefaultOptions()
		po.Seed = seed
		po.UBFactor = ub
		po.Faults = o.Faults
		if o.Procs > 0 {
			po.Procs = o.Procs
		}
		r, err := parmetis.Partition(g, k, po, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	case PTScotch:
		po := ptscotch.DefaultOptions()
		po.Seed = seed
		po.UBFactor = ub
		po.Faults = o.Faults
		if o.Procs > 0 {
			po.Procs = o.Procs
		}
		r, err := ptscotch.Partition(g, k, po, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	case Gmetis:
		go2 := gmetis.DefaultOptions()
		go2.Seed = seed
		go2.UBFactor = ub
		if o.Threads > 0 {
			go2.Threads = o.Threads
		}
		r, err := gmetis.Partition(g, k, go2, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	case Jostle:
		jo := jostle.DefaultOptions()
		jo.Seed = seed
		jo.UBFactor = ub
		if o.Threads > 0 {
			jo.Threads = o.Threads
		}
		r, err := jostle.Partition(g, k, jo, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	case Spectral:
		so := spectral.DefaultOptions()
		so.Seed = seed
		so.UBFactor = ub
		r, err := spectral.Partition(g, k, so, m)
		if err != nil {
			return nil, err
		}
		return &Result{Part: r.Part, EdgeCut: r.EdgeCut, ModeledSeconds: r.ModeledSeconds(), Timeline: r.Timeline}, nil
	default:
		return nil, fmt.Errorf("gpmetis: unknown algorithm %d", int(o.Algorithm))
	}
}
