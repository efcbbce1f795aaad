// Package ptscotch implements a PT-Scotch-style distributed multilevel
// partitioner (Chevalier & Pellegrini), the second distributed system the
// paper's Section II.B describes. It is not part of the paper's measured
// comparison — the repository includes it as an extension baseline — but
// every mechanism the paper attributes to PT-Scotch is here:
//
//   - probabilistic (Monte-Carlo) matching: in each pass a vertex sends a
//     heavy-edge match request with probability 1/2, which avoids request
//     cycles without ParMetis's direction bookkeeping;
//   - folding: once the coarse graph is small relative to the processor
//     count, it is duplicated onto halves of the machine that continue
//     coarsening independently with different seeds, recursively, until
//     each processor holds a full copy; each processor then runs a serial
//     recursive bisection and the best initial partitioning wins;
//   - banded refinement: un-coarsening refines only a band of vertices
//     within a fixed BFS distance of the partition separators, which
//     bounds the refinement cost by the separator size instead of the
//     graph size.
//
// It runs on the same mpi substrate and machine model as ParMetis, so its
// modeled runtimes are directly comparable.
package ptscotch

import (
	"fmt"
	"math/rand"
	"sort"

	"gpmetis/internal/fault"
	"gpmetis/internal/graph"
	"gpmetis/internal/metis"
	"gpmetis/internal/mpi"
	"gpmetis/internal/perfmodel"
)

// Options configures a run. Construct with DefaultOptions.
type Options struct {
	// Seed drives all randomized decisions.
	Seed int64
	// UBFactor is the allowed imbalance.
	UBFactor float64
	// CoarsenTo stops coarsening at CoarsenTo*k vertices.
	CoarsenTo int
	// RefineIters bounds banded refinement passes per level.
	RefineIters int
	// Procs is the number of ranks.
	Procs int
	// MatchPasses bounds the Monte-Carlo matching passes per level.
	MatchPasses int
	// FoldFactor: folding starts once the graph has fewer than
	// FoldFactor vertices per processor.
	FoldFactor int
	// BandWidth is the BFS distance from the separator kept in the
	// refinement band (PT-Scotch uses a small constant).
	BandWidth int
	// Faults, when non-nil, injects rank failures (fault.SiteMPIRank):
	// a killed rank aborts the job with mpi.ErrRankFailure. Nil disables
	// injection.
	Faults *fault.Injector
}

// DefaultOptions mirrors the ParMetis setup with PT-Scotch's knobs.
func DefaultOptions() Options {
	return Options{
		Seed:        1,
		UBFactor:    1.03,
		CoarsenTo:   30,
		RefineIters: 6,
		Procs:       8,
		MatchPasses: 6,
		FoldFactor:  2048,
		BandWidth:   2,
	}
}

func (o *Options) validate(g *graph.Graph, k int) error {
	switch {
	case k < 1:
		return fmt.Errorf("ptscotch: k must be >= 1, got %d", k)
	case g.NumVertices() == 0:
		return fmt.Errorf("ptscotch: cannot partition an empty graph")
	case k > g.NumVertices():
		return fmt.Errorf("ptscotch: k=%d exceeds vertex count %d", k, g.NumVertices())
	case o.UBFactor < 1.0:
		return fmt.Errorf("ptscotch: UBFactor %g must be >= 1.0", o.UBFactor)
	case o.CoarsenTo < 1:
		return fmt.Errorf("ptscotch: CoarsenTo %d must be >= 1", o.CoarsenTo)
	case o.RefineIters < 0:
		return fmt.Errorf("ptscotch: RefineIters %d must be >= 0", o.RefineIters)
	case o.Procs < 1:
		return fmt.Errorf("ptscotch: Procs %d must be >= 1", o.Procs)
	case o.MatchPasses < 1:
		return fmt.Errorf("ptscotch: MatchPasses %d must be >= 1", o.MatchPasses)
	case o.FoldFactor < 1:
		return fmt.Errorf("ptscotch: FoldFactor %d must be >= 1", o.FoldFactor)
	case o.BandWidth < 1:
		return fmt.Errorf("ptscotch: BandWidth %d must be >= 1", o.BandWidth)
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Part     []int
	EdgeCut  int
	Levels   int
	FoldedAt int // vertex count at which folding began (0 = never)
	Timeline perfmodel.Timeline
}

// ModeledSeconds returns the modeled parallel runtime.
func (r *Result) ModeledSeconds() float64 { return r.Timeline.Total() }

func chunk(n, p, t int) (int, int) { return t * n / p, (t + 1) * n / p }

// Partition runs the full PT-Scotch-style pipeline.
func Partition(g *graph.Graph, k int, o Options, m *perfmodel.Machine) (*Result, error) {
	if err := o.validate(g, k); err != nil {
		return nil, err
	}
	res := &Result{}
	type mark struct {
		name string
		at   float64
	}
	var marks []mark
	var finalPart []int
	var levelsOut, foldedAt int

	_, err := mpi.RunInjected(m, o.Procs, o.Faults, func(r *mpi.Rank) {
		P := r.Size()
		record := func(name string) {
			r.Barrier()
			if r.ID() == 0 {
				marks = append(marks, mark{name, r.Clock()})
			}
		}

		// --- Distributed coarsening with Monte-Carlo matching ---
		cur := g
		var levels []metis.Level
		target := o.CoarsenTo * k
		maxVWgt := metis.MaxVertexWeight(g, k, o.CoarsenTo)
		foldPoint := o.FoldFactor * P
		for cur.NumVertices() > target && cur.NumVertices() > foldPoint {
			match := mcMatch(r, cur, o, int64(len(levels)), maxVWgt)
			var acct perfmodel.ThreadCost
			cmap, coarseN := metis.BuildCMap(match, &acct)
			r.Charge(acct)
			if float64(coarseN) > 0.95*float64(cur.NumVertices()) {
				break
			}
			cg := contractReplicated(r, cur, match, cmap, coarseN)
			levels = append(levels, metis.Level{Fine: cur, CMap: cmap, Coarse: cg})
			cur = cg
		}
		record("coarsen")

		// --- Folding: duplicate the graph onto halves of the machine,
		// which continue independently; after log2(P) folds every rank
		// holds a full copy and finishes serially with its own seed. ---
		if r.ID() == 0 {
			foldedAt = cur.NumVertices()
		}
		bytes := float64(4 * (len(cur.XAdj) + len(cur.Adjncy) + len(cur.AdjWgt) + len(cur.VWgt)))
		folds := 0
		for 1<<folds < P {
			folds++
		}
		// Each fold re-distributes half a copy: charge one graph-sized
		// message per fold level.
		r.ChargeSeconds(float64(folds) * m.NetMsgSec(bytes))

		serialLevels, coarsest := serialCoarsen(cur, o, k, maxVWgt, int64(r.ID()), r)
		var acct perfmodel.ThreadCost
		rng := rand.New(rand.NewSource(o.Seed + int64(r.ID())*7907))
		part := metis.RecursiveBisect(coarsest, k, o.UBFactor, rng, &acct)
		r.Charge(acct)
		// Project the rank's private serial levels back to the fold point.
		for i := len(serialLevels) - 1; i >= 0; i-- {
			part = metis.Project(serialLevels[i].CMap, part, &acct)
			metis.KWayRefine(serialLevels[i].Fine, part, k, o.UBFactor, o.RefineIters, rng, &acct)
		}
		r.Charge(acct)
		myCut := graph.EdgeCut(cur, part)
		cuts := r.AllGather([]int{myCut})
		bestRank, bestCut := 0, cuts[0][0]
		for p := 1; p < P; p++ {
			if cuts[p][0] < bestCut {
				bestRank, bestCut = p, cuts[p][0]
			}
		}
		part = r.Bcast(bestRank, part)
		record("initpart")

		// --- Un-coarsening with banded refinement ---
		for i := len(levels) - 1; i >= 0; i-- {
			l := levels[i]
			n := l.Fine.NumVertices()
			fine := make([]int, n)
			lo, hi := chunk(n, P, r.ID())
			for v := 0; v < n; v++ {
				fine[v] = part[l.CMap[v]]
			}
			r.Charge(perfmodel.ThreadCost{Ops: float64(hi - lo), Rand: float64(hi - lo)})
			part = fine
			bandedRefine(r, l.Fine, part, k, o)
		}
		record("uncoarsen")

		if r.ID() == 0 {
			var bAcct perfmodel.ThreadCost
			metis.BalancePartition(g, part, k, o.UBFactor, &bAcct)
			r.Charge(bAcct)
			finalPart = part
			levelsOut = len(levels)
		}
		record("balance")
	})
	if err != nil {
		return nil, err
	}

	prev := 0.0
	for _, mk := range marks {
		res.Timeline.Append(mk.name, perfmodel.LocNet, mk.at-prev)
		prev = mk.at
	}
	res.Part = finalPart
	res.Levels = levelsOut
	res.FoldedAt = foldedAt
	res.EdgeCut = graph.EdgeCut(g, finalPart)
	return res, nil
}

// mcMatch is the Monte-Carlo matching pass: each owned unmatched vertex
// flips a deterministic coin and, on heads, requests its heaviest
// unmatched neighbor; mutual requests commit. "The results show that,
// after a few iterations, a large part of the vertices are matched."
func mcMatch(r *mpi.Rank, g *graph.Graph, o Options, level int64, maxVWgt int) []int {
	n := g.NumVertices()
	P := r.Size()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	lo, hi := chunk(n, P, r.ID())

	for pass := 0; pass < o.MatchPasses; pass++ {
		var acct perfmodel.ThreadCost
		var flat []int
		for v := lo; v < hi; v++ {
			if match[v] != -1 {
				continue
			}
			// The 0.5-probability coin, deterministic in (seed, level,
			// pass, v) so every rank could recompute it.
			if coin(o.Seed, level, int64(pass), int64(v)) {
				continue
			}
			adj, wgt := g.Neighbors(v)
			best, bestW := -1, -1
			for i, u := range adj {
				if match[u] != -1 || wgt[i] <= bestW {
					continue
				}
				if maxVWgt > 0 && g.VWgt[v]+g.VWgt[u] > maxVWgt {
					continue
				}
				best, bestW = u, wgt[i]
			}
			acct.Ops += float64(len(adj) + 4)
			acct.Rand += float64(len(adj))
			if best != -1 {
				flat = append(flat, v, best, bestW)
			}
		}
		r.Charge(acct)

		all := r.AllGather(flat)
		type req struct{ from, to, w int }
		var merged []req
		for _, buf := range all {
			for i := 0; i+2 < len(buf); i += 3 {
				merged = append(merged, req{buf[i], buf[i+1], buf[i+2]})
			}
		}
		sort.Slice(merged, func(a, b int) bool {
			if merged[a].to != merged[b].to {
				return merged[a].to < merged[b].to
			}
			if merged[a].w != merged[b].w {
				return merged[a].w > merged[b].w
			}
			return merged[a].from < merged[b].from
		})
		for _, q := range merged {
			if match[q.to] == -1 && match[q.from] == -1 && q.to != q.from {
				match[q.to] = q.from
				match[q.from] = q.to
			}
		}
		r.Charge(perfmodel.ThreadCost{Ops: float64(4 * len(merged)), Rand: float64(2 * len(merged))})
	}
	for v := range match {
		if match[v] == -1 {
			match[v] = v
		}
	}
	return match
}

// coin returns a deterministic fair coin for the Monte-Carlo matching.
func coin(seed, level, pass, v int64) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(level)<<40 ^ uint64(pass)<<20 ^ uint64(v)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return x&1 == 0
}

// contractReplicated contracts by representative ownership and exchanges
// row segments so every rank assembles the identical coarse graph (the
// same scheme as parmetis.distContract, restated here so the packages
// stay independent).
func contractReplicated(r *mpi.Rank, g *graph.Graph, match, cmap []int, coarseN int) *graph.Graph {
	n := g.NumVertices()
	P := r.Size()
	lo, hi := chunk(n, P, r.ID())

	var acct perfmodel.ThreadCost
	var flat []int
	marker := make(map[int]int, 64)
	var rowAdj, rowWgt []int
	for v := lo; v < hi; v++ {
		if match[v] < v {
			continue
		}
		cv := cmap[v]
		rowAdj = rowAdj[:0]
		rowWgt = rowWgt[:0]
		vw := 0
		members := [2]int{v, match[v]}
		last := 0
		if match[v] != v {
			last = 1
		}
		for mi := 0; mi <= last; mi++ {
			mv := members[mi]
			vw += g.VWgt[mv]
			adj, wgt := g.Neighbors(mv)
			for i, u := range adj {
				cu := cmap[u]
				if cu == cv {
					continue
				}
				if idx, ok := marker[cu]; ok {
					rowWgt[idx] += wgt[i]
				} else {
					marker[cu] = len(rowAdj)
					rowAdj = append(rowAdj, cu)
					rowWgt = append(rowWgt, wgt[i])
				}
			}
			acct.Ops += float64(2 * len(adj))
			acct.Rand += float64(2 * len(adj))
		}
		for _, cu := range rowAdj {
			delete(marker, cu)
		}
		flat = append(flat, cv, vw, len(rowAdj))
		for i := range rowAdj {
			flat = append(flat, rowAdj[i], rowWgt[i])
		}
	}
	r.Charge(acct)

	all := r.AllGather(flat)
	type row struct {
		vw  int
		adj []int
		wgt []int
	}
	rows := make([]row, coarseN)
	for _, buf := range all {
		i := 0
		for i < len(buf) {
			cv, vw, deg := buf[i], buf[i+1], buf[i+2]
			i += 3
			rw := row{vw: vw, adj: make([]int, deg), wgt: make([]int, deg)}
			for j := 0; j < deg; j++ {
				rw.adj[j] = buf[i]
				rw.wgt[j] = buf[i+1]
				i += 2
			}
			rows[cv] = rw
		}
	}
	cg := &graph.Graph{XAdj: make([]int, coarseN+1), VWgt: make([]int, coarseN)}
	for cv, rw := range rows {
		cg.VWgt[cv] = rw.vw
		cg.XAdj[cv+1] = cg.XAdj[cv] + len(rw.adj)
	}
	cg.Adjncy = make([]int, 0, cg.XAdj[coarseN])
	cg.AdjWgt = make([]int, 0, cg.XAdj[coarseN])
	for _, rw := range rows {
		cg.Adjncy = append(cg.Adjncy, rw.adj...)
		cg.AdjWgt = append(cg.AdjWgt, rw.wgt...)
	}
	r.Charge(perfmodel.ThreadCost{SeqBytes: float64(8 * len(cg.Adjncy))})
	return cg
}

// serialCoarsen finishes coarsening privately on one rank after folding,
// with a rank-specific seed, charging the rank's own clock.
func serialCoarsen(g *graph.Graph, o Options, k, maxVWgt int, rankSeed int64, r *mpi.Rank) ([]metis.Level, *graph.Graph) {
	rng := rand.New(rand.NewSource(o.Seed + rankSeed*6151))
	var levels []metis.Level
	target := o.CoarsenTo * k
	cur := g
	for cur.NumVertices() > target {
		var acct perfmodel.ThreadCost
		match := metis.Match(cur, metis.HEM, maxVWgt, rng, &acct)
		cmap, coarseN := metis.BuildCMap(match, &acct)
		if float64(coarseN) > 0.95*float64(cur.NumVertices()) {
			r.Charge(acct)
			break
		}
		cg := metis.Contract(cur, match, cmap, coarseN, &acct)
		r.Charge(acct)
		levels = append(levels, metis.Level{Fine: cur, CMap: cmap, Coarse: cg})
		cur = cg
	}
	return levels, cur
}
