// Package mtmetis implements the shared-memory parallel multilevel
// partitioner of LaSalle & Karypis ("Multi-threaded graph partitioning",
// IPDPS 2013) that the paper uses both as its strongest CPU baseline and
// as the CPU half of GP-metis (coarse levels, initial partitioning, early
// refinement).
//
// The algorithmic structure follows the paper's Section II.C:
//
//   - vertices are divided among T threads; a shared matching vector is
//     filled lock-free in a first round and conflicting entries are
//     resolved (re-matched to self) in a second round,
//   - contraction is parallel: each thread builds the coarse rows of the
//     pairs whose representative it owns,
//   - initial partitioning runs T independent recursive bisections with
//     different seeds and keeps the best cut,
//   - refinement runs in two-iteration passes whose move direction
//     alternates, with per-partition buffers that collect the threads'
//     move requests and a commit step that enforces the balance bound.
//
// Threads are *modeled*: work executes deterministically on the host while
// per-thread costs feed the machine model's max-over-threads phase time,
// so the load imbalance and synchronization structure of the real
// implementation is what determines the reported runtime (see DESIGN.md).
package mtmetis

import (
	"fmt"
	"math/rand"

	"gpmetis/internal/graph"
	"gpmetis/internal/metis"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// Options configures a run. Construct with DefaultOptions.
type Options struct {
	// Seed drives all randomized decisions.
	Seed int64
	// UBFactor is the allowed imbalance (paper: 1.03).
	UBFactor float64
	// CoarsenTo stops coarsening at CoarsenTo*k vertices.
	CoarsenTo int
	// RefineIters bounds refinement passes per uncoarsening level.
	RefineIters int
	// Threads is the number of modeled CPU threads (paper: 8).
	Threads int
	// Verify enables paranoid invariant checking at every level
	// boundary (cmap surjectivity, weight conservation, projection
	// cut conservation); violations fail the run with an error
	// wrapping graph.ErrVerify. Checks run outside the modeled clock.
	Verify bool
	// Trace, when non-nil, is the parent span under which the run emits
	// its per-level spans (standalone mt-metis runs and the CPU phase of
	// GP-metis both use this). Nil disables tracing.
	Trace *obs.Span
	// TraceOffset shifts this run's timeline-local timestamps into the
	// enclosing trace's modeled clock.
	TraceOffset float64
}

// DefaultOptions mirrors the paper's experimental setup on the modeled
// 8-core Xeon.
func DefaultOptions() Options {
	return Options{
		Seed:        1,
		UBFactor:    1.03,
		CoarsenTo:   30,
		RefineIters: 8,
		Threads:     8,
	}
}

func (o *Options) validate(g *graph.Graph, k int) error {
	switch {
	case k < 1:
		return fmt.Errorf("mtmetis: k must be >= 1, got %d", k)
	case g.NumVertices() == 0:
		return fmt.Errorf("mtmetis: cannot partition an empty graph")
	case k > g.NumVertices():
		return fmt.Errorf("mtmetis: k=%d exceeds vertex count %d", k, g.NumVertices())
	case o.UBFactor < 1.0:
		return fmt.Errorf("mtmetis: UBFactor %g must be >= 1.0", o.UBFactor)
	case o.CoarsenTo < 1:
		return fmt.Errorf("mtmetis: CoarsenTo %d must be >= 1", o.CoarsenTo)
	case o.RefineIters < 0:
		return fmt.Errorf("mtmetis: RefineIters %d must be >= 0", o.RefineIters)
	case o.Threads < 1:
		return fmt.Errorf("mtmetis: Threads %d must be >= 1", o.Threads)
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Part     []int
	EdgeCut  int
	Levels   int
	Timeline perfmodel.Timeline
	// MatchConflicts counts first-round matching entries that the second
	// round had to reset, summed over all levels (paper Section IV
	// attributes mt-metis's quality edge over GP-metis to its lower
	// conflict rate; this makes the rate observable).
	MatchConflicts int
	// MatchAttempts counts all first-round match proposals, for
	// normalizing MatchConflicts.
	MatchAttempts int
}

// ModeledSeconds returns the total modeled parallel runtime.
func (r *Result) ModeledSeconds() float64 { return r.Timeline.Total() }

// Partition runs the full mt-metis pipeline on the modeled multicore CPU.
func Partition(g *graph.Graph, k int, o Options, m *perfmodel.Machine) (*Result, error) {
	if err := o.validate(g, k); err != nil {
		return nil, err
	}
	if o.Threads > m.CPU.Cores {
		return nil, fmt.Errorf("mtmetis: %d threads exceed the modeled %d cores", o.Threads, m.CPU.Cores)
	}
	res := &Result{}
	sink := obs.NewTimelineSink(o.Trace, o.TraceOffset)
	if sink != nil {
		res.Timeline.Observe(sink)
	}

	levels, conflicts, attempts := coarsen(g, k, o, m, &res.Timeline, sink)
	res.Levels = len(levels)
	res.MatchConflicts = conflicts
	res.MatchAttempts = attempts
	if o.Verify {
		for i, l := range levels {
			if err := graph.VerifyCoarsening(l.Fine, l.Coarse, l.CMap); err != nil {
				return nil, fmt.Errorf("mtmetis: coarsen level %d: %w", i, err)
			}
		}
	}

	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].Coarse
	}
	part := initialPartition(coarsest, k, o, m, &res.Timeline)

	for i := len(levels) - 1; i >= 0; i-- {
		lvl := sink.Begin(obs.SpanUncoarsenLevel, res.Timeline.Total(),
			obs.Str("side", "cpu"),
			obs.Int("level", int64(i)),
			obs.Int("vertices", int64(levels[i].Fine.NumVertices())),
			obs.Int("edges", int64(levels[i].Fine.NumEdges())))
		cpart := part
		part = projectParallel(levels[i], part, o, m, &res.Timeline)
		if o.Verify {
			if err := graph.VerifyProjection(levels[i].Fine, levels[i].Coarse, levels[i].CMap, part, cpart); err != nil {
				return nil, fmt.Errorf("mtmetis: uncoarsen level %d: %w", i, err)
			}
		}
		Refine(levels[i].Fine, part, k, o, m, &res.Timeline)
		sink.End(lvl, res.Timeline.Total())
	}

	var acct perfmodel.ThreadCost
	metis.BalancePartition(g, part, k, o.UBFactor, &acct)
	res.Timeline.Append("balance", perfmodel.LocCPU, m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))

	if o.Verify {
		if err := graph.VerifyPartition(g, part, k, 0); err != nil {
			return nil, fmt.Errorf("mtmetis: final partition: %w", err)
		}
	}
	res.Part = part
	res.EdgeCut = graph.EdgeCut(g, part)
	return res, nil
}

// initialPartition runs Threads independent recursive bisections with
// distinct seeds and keeps the best cut; the phase costs the maximum
// single try (they run concurrently). The tries share one bisection
// workspace and two label buffers, the current try's and the best one's.
func initialPartition(g *graph.Graph, k int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline) []int {
	costs := make([]perfmodel.ThreadCost, o.Threads)
	n := g.NumVertices()
	part, bestPart := make([]int, n), make([]int, n)
	best := -1
	var b metis.Bisector
	for t := 0; t < o.Threads; t++ {
		rng := rand.New(rand.NewSource(o.Seed + int64(t)*7919))
		b.RecursiveBisect(g, k, o.UBFactor, rng, &costs[t], part)
		if cut := graph.EdgeCut(g, part); best == -1 || cut < best {
			best = cut
			part, bestPart = bestPart, part
		}
	}
	tl.Append("initpart", perfmodel.LocCPU, m.CPUPhaseSeconds(costs))
	return bestPart
}

// projectParallel transfers the coarse partition to the finer graph with
// the fine vertices divided among threads.
func projectParallel(l metis.Level, coarsePart []int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline) []int {
	n := len(l.CMap)
	part := make([]int, n)
	costs := make([]perfmodel.ThreadCost, o.Threads)
	for t := 0; t < o.Threads; t++ {
		lo, hi := chunk(n, o.Threads, t)
		for v := lo; v < hi; v++ {
			part[v] = coarsePart[l.CMap[v]]
		}
		costs[t].Ops += float64(hi - lo)
		costs[t].Rand += float64(hi - lo)
	}
	tl.Append("project", perfmodel.LocCPU, m.CPUPhaseSeconds(costs))
	return part
}

// chunk returns thread t's half-open vertex range under a blocked
// distribution of n items over p threads.
func chunk(n, p, t int) (int, int) {
	lo := t * n / p
	hi := (t + 1) * n / p
	return lo, hi
}
