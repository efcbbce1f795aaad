package mtmetis

import (
	"cmp"
	"slices"

	"gpmetis/internal/graph"
	"gpmetis/internal/perfmodel"
)

// moveReq is one thread's request to migrate a vertex into a partition's
// buffer (Section II.C: "each thread has an assigned buffer for inserting
// the vertex movement requests").
type moveReq struct {
	v    int
	from int
	gain int
}

// Refine improves the k-way partition with mt-metis's two-step buffered
// scheme: each pass runs two iterations with opposite move directions
// (low->high partition ids, then high->low) to prevent two neighbor
// vertices swapping across the same boundary concurrently; threads scan
// their vertices and append requests to per-destination-partition
// buffers; then the buffers are drained best-gain-first, committing only
// moves that keep the destination within the balance bound.
func Refine(g *graph.Graph, part []int, k int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline) {
	n := g.NumVertices()
	pw := graph.PartWeights(g, part, k)
	totalW := 0
	for _, w := range pw {
		totalW += w
	}
	maxPW := int(o.UBFactor * float64(totalW) / float64(k))
	if maxPW < 1 {
		maxPW = 1
	}

	// Per-direction scratch, reset rather than reallocated.
	costs := make([]perfmodel.ThreadCost, o.Threads)
	exploreCosts := make([]perfmodel.ThreadCost, o.Threads)
	buffers := make([][]moveReq, k)
	conn := make([]int, k)
	var touched []int

	for pass := 0; pass < o.RefineIters; pass++ {
		committed := 0
		for dir := 0; dir < 2; dir++ {
			clear(costs)
			clear(exploreCosts)
			for p := range buffers {
				buffers[p] = buffers[p][:0]
			}

			// Scan step: threads propose direction-constrained moves.
			for t := 0; t < o.Threads; t++ {
				lo, hi := chunk(n, o.Threads, t)
				for v := lo; v < hi; v++ {
					pv := part[v]
					adj, wgt := g.Neighbors(v)
					boundary := false
					for i, u := range adj {
						pu := part[u]
						if pu != pv {
							boundary = true
						}
						if conn[pu] == 0 {
							touched = append(touched, pu)
						}
						conn[pu] += wgt[i]
					}
					costs[t].Ops += float64(len(adj) + 2)
					costs[t].Rand += float64(len(adj))
					if boundary {
						bestP, bestGain := -1, 0
						for _, p := range touched {
							if p == pv {
								continue
							}
							// Direction ordering: even iterations move
							// only toward higher ids, odd toward lower.
							if dir == 0 && p < pv || dir == 1 && p > pv {
								continue
							}
							if pw[p]+g.VWgt[v] > maxPW {
								continue
							}
							if gain := conn[p] - conn[pv]; gain > bestGain {
								bestP, bestGain = p, gain
							}
						}
						if bestP != -1 && bestGain > 0 {
							buffers[bestP] = append(buffers[bestP], moveReq{v: v, from: pv, gain: bestGain})
							costs[t].Atomics++ // buffer slot via atomic counter
						}
					}
					for _, p := range touched {
						conn[p] = 0
					}
					touched = touched[:0]
				}
			}

			// Explore step: one worker per partition drains its buffer,
			// best gain first, committing what the balance bound allows.
			// With k partitions but only Threads cores, each core serves
			// k/Threads buffers in turn, which the cost model reflects.
			for p := 0; p < k; p++ {
				ec := &exploreCosts[p%o.Threads]
				buf := buffers[p]
				sortByGain(buf)
				ec.Ops += float64(len(buf)) * 8 // sort + scan
				for _, req := range buf {
					if part[req.v] != req.from {
						continue // moved already in this iteration
					}
					if pw[p]+g.VWgt[req.v] > maxPW {
						continue
					}
					part[req.v] = p
					pw[req.from] -= g.VWgt[req.v]
					pw[p] += g.VWgt[req.v]
					committed++
					ec.Rand += 2
				}
			}

			tl.Append("refine.scan", perfmodel.LocCPU, m.CPUPhaseSeconds(costs))
			tl.Append("refine.explore", perfmodel.LocCPU, m.CPUPhaseSeconds(exploreCosts))
		}
		if committed == 0 {
			break
		}
	}
}

// sortByGain orders a buffer by decreasing gain. The sort is not stable:
// requests of equal gain end in the order pdqsort leaves them, which the
// committed moves depend on.
func sortByGain(buf []moveReq) {
	slices.SortFunc(buf, func(a, b moveReq) int { return cmp.Compare(b.gain, a.gain) })
}
