package metis

import (
	"math/bits"
	"math/rand"

	"gpmetis/internal/graph"
	"gpmetis/internal/perfmodel"
)

// gggpTries is how many random seed regions GGGP grows before keeping the
// best bisection, as in Metis.
const gggpTries = 4

// Bisect splits g into sides 0/1 with target weight fractions frac0 and
// 1-frac0 using Greedy Graph Growing Partitioning (Section II.A.2): grow
// a region breadth-first from a random seed, always absorbing the
// frontier vertex with the largest edge-cut decrease, until the region
// holds ~frac0 of the total weight; repeat gggpTries times and keep the
// smallest cut, then refine it with the bucket-based Fiduccia-Mattheyses
// pass (RefineBisectionFM).
func Bisect(g *graph.Graph, frac0, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	var w bisectWork
	return w.bisect(g, frac0, ubfactor, rng, acct)
}

// bisectWork is the scratch storage of one RecursiveBisect call, reused by
// every bisection down its recursion. Subgraphs only shrink, so arrays
// sized by the first bisection serve all later ones.
type bisectWork struct {
	part, bestPart, gain, frontier []int
	inFrontier                     []bool
	fm                             fmWork
	// w0 and cut are the side-0 weight and the edge cut of the region
	// the current GGGP try has grown.
	w0, cut int
	// local maps a vertex to its index within its side during a split.
	local []int
	// arena is a stack of ints that holds the subgraphs and vertex maps
	// of the current recursion path; top is its first free index.
	arena []int
	top   int
	// subs holds the two subgraphs of each recursion depth.
	subs [][2]graph.Graph
}

// bisect is Bisect on w's storage. The returned labels alias w and stay
// valid until the next call.
func (w *bisectWork) bisect(g *graph.Graph, frac0, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	w.bestPart = resize(w.bestPart, n)
	if n == 1 {
		w.bestPart[0] = 0
		return w.bestPart
	}
	totalW := g.TotalVertexWeight()
	target0 := int(frac0 * float64(totalW))
	if target0 < 1 {
		target0 = 1
	}

	bestPart := w.bestPart
	bestCut := -1
	w.prepare(n)
	for try := 0; try < gggpTries; try++ {
		w.growRegion(g, rng.Intn(n), target0, acct)
		// The host tracks the cut while growing; the modeled bisection
		// still recounts it per try and is charged for that.
		if acct != nil {
			acct.Ops += float64(len(g.Adjncy))
			acct.SeqBytes += float64(8 * len(g.Adjncy))
		}
		if bestCut == -1 || w.cut < bestCut {
			bestCut = w.cut
			copy(bestPart, w.part)
		}
	}

	w.fm.refine(g, bestPart, frac0, ubfactor, acct)
	return bestPart
}

// prepare sizes the GGGP arrays for a graph of n vertices.
func (w *bisectWork) prepare(n int) {
	w.part = resize(w.part, n)
	w.gain = resize(w.gain, n)
	w.inFrontier = resize(w.inFrontier, n)
	if cap(w.frontier) < n {
		w.frontier = make([]int, 0, n)
	}
}

// growRegion is one GGGP try: starting with every vertex on side 1, it
// grows side 0 from seed until it weighs at least target0, leaving the
// labels in w.part and their edge cut in w.cut.
func (w *bisectWork) growRegion(g *graph.Graph, seed, target0 int, acct *perfmodel.ThreadCost) {
	part, inFrontier := w.part, w.inFrontier
	for i := range part {
		part[i] = 1
		inFrontier[i] = false
	}
	w.frontier = w.frontier[:0]
	w.w0, w.cut = 0, 0

	w.grow(g, seed, acct)
	for w.w0 < target0 {
		// Pick the frontier vertex with max gain (compact dead slots).
		bi, bg := -1, 0
		out := w.frontier[:0]
		for _, u := range w.frontier {
			if part[u] == 0 {
				inFrontier[u] = false
				continue
			}
			out = append(out, u)
			if bi == -1 || w.gain[u] > bg {
				bi, bg = u, w.gain[u]
			}
		}
		w.frontier = out
		if acct != nil {
			acct.Ops += float64(len(w.frontier))
		}
		if bi == -1 {
			// Disconnected remainder: absorb any side-1 vertex.
			for v := range part {
				if part[v] == 1 {
					bi = v
					break
				}
			}
			if bi == -1 {
				break
			}
		}
		inFrontier[bi] = false
		w.grow(g, bi, acct)
	}
}

// grow moves v to side 0: it updates the region's weight and cut, adds
// v's side-1 neighbors to the frontier with their gains (the cut decrease
// of moving them), and raises the gains of those already there.
func (w *bisectWork) grow(g *graph.Graph, v int, acct *perfmodel.ThreadCost) {
	part, gain := w.part, w.gain
	part[v] = 0
	w.w0 += g.VWgt[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if part[u] == 0 {
			w.cut -= wgt[i] // edge (u,v) is now inside side 0
			continue
		}
		w.cut += wgt[i]
		if !w.inFrontier[u] {
			w.inFrontier[u] = true
			gain[u] = 0
			w.frontier = append(w.frontier, u)
			uadj, uwgt := g.Neighbors(u)
			for j, x := range uadj {
				if part[x] == 0 {
					gain[u] += uwgt[j]
				} else {
					gain[u] -= uwgt[j]
				}
			}
			if acct != nil {
				acct.Ops += float64(len(uadj))
				acct.Rand += float64(len(uadj))
			}
		} else {
			// v moved to side 0: u's gain rises by 2*w(u,v).
			gain[u] += 2 * wgt[i]
		}
	}
	if acct != nil {
		acct.Ops += float64(len(adj))
		acct.Rand += float64(len(adj))
	}
}

// RecursiveBisect partitions g into k parts by recursive bisection,
// splitting k as evenly as possible at each level (Section II.A.2). The
// returned labels are in [0,k).
func RecursiveBisect(g *graph.Graph, k int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	n := g.NumVertices()
	part := make([]int, n)
	if k <= 1 || n == 0 {
		return part
	}
	// A balanced recursion path holds about two copies of g in the arena.
	w := &bisectWork{
		arena: make([]int, 2*(3*n+2*len(g.Adjncy))),
		subs:  make([][2]graph.Graph, bits.Len(uint(k))),
	}
	ids := w.alloc(n)
	for v := range ids {
		ids[v] = v
	}
	w.recurse(g, ids, k, 0, 0, ubfactor, rng, acct, part)
	return part
}

// alloc returns n ints from the top of the arena. When the arena is too
// small it is replaced by a larger one; slices handed out earlier keep the
// old one alive, and indices below top are never reused while live, so
// alloc and release keep working across the switch.
func (w *bisectWork) alloc(n int) []int {
	if w.top+n > len(w.arena) {
		w.arena = make([]int, 2*(w.top+n))
	}
	s := w.arena[w.top : w.top+n : w.top+n]
	w.top += n
	return s
}

// recurse labels g's vertices with parts base..base+k-1 in out, where
// ids maps each vertex of g to its index in out and depth is g's depth in
// the recursion.
func (w *bisectWork) recurse(g *graph.Graph, ids []int, k, base, depth int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost, out []int) {
	if k <= 1 {
		for _, v := range ids {
			out[v] = base
		}
		return
	}
	n := g.NumVertices()
	if n == 0 {
		return
	}
	k1 := (k + 1) / 2
	frac0 := float64(k1) / float64(k)
	// Tighten the imbalance allowance as we recurse so the leaf
	// partitions can still meet the global bound.
	ub := 1 + (ubfactor-1)*0.75
	side := w.bisect(g, frac0, ub, rng, acct)

	n0 := 0
	for _, s := range side {
		if s == 0 {
			n0++
		}
	}
	// Degenerate bisections (tiny or pathological subgraphs) can leave a
	// side empty; fall back to an index split so every one of the k leaf
	// partitions receives vertices whenever the graph has enough of them.
	if (n0 == 0 || n0 == n) && n >= 2 {
		pivot := n * k1 / k
		if pivot < 1 {
			pivot = 1
		}
		if pivot >= n {
			pivot = n - 1
		}
		for v := range side {
			side[v] = 0
			if v >= pivot {
				side[v] = 1
			}
		}
		n0 = pivot
	}
	if acct != nil {
		acct.Ops += float64(len(g.Adjncy))
		acct.Rand += float64(len(g.Adjncy))
	}

	mark := w.top
	subs := &w.subs[depth]
	ids0 := w.split(g, ids, side, 0, n0, k1 > 1, &subs[0])
	ids1 := w.split(g, ids, side, 1, n-n0, k-k1 > 1, &subs[1])
	w.recurse(&subs[0], ids0, k1, base, depth+1, ubfactor, rng, acct, out)
	w.recurse(&subs[1], ids1, k-k1, base+k1, depth+1, ubfactor, rng, acct, out)
	w.top = mark
}

// split writes to sub the subgraph induced by the ns vertices of g on
// side s, in increasing vertex order with each adjacency list's order
// kept, and returns its map to indices in out. Without withGraph only the
// map is built: a single-part leaf needs no graph. Both live in the arena.
func (w *bisectWork) split(g *graph.Graph, ids, side []int, s, ns int, withGraph bool, sub *graph.Graph) []int {
	subIDs := w.alloc(ns)
	i := 0
	for v, sv := range side {
		if sv == s {
			subIDs[i] = ids[v]
			i++
		}
	}
	if !withGraph {
		return subIDs
	}
	w.local = resize(w.local, len(side))
	i = 0
	edges := 0
	for v, sv := range side {
		if sv != s {
			continue
		}
		w.local[v] = i
		i++
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if side[u] == s {
				edges++
			}
		}
	}
	*sub = graph.Graph{
		XAdj:   w.alloc(ns + 1),
		VWgt:   w.alloc(ns),
		Adjncy: w.alloc(edges),
		AdjWgt: w.alloc(edges),
	}
	sub.XAdj[0] = 0
	i, e := 0, 0
	for v, sv := range side {
		if sv != s {
			continue
		}
		sub.VWgt[i] = g.VWgt[v]
		adj, wgt := g.Neighbors(v)
		for j, u := range adj {
			if side[u] == s {
				sub.Adjncy[e] = w.local[u]
				sub.AdjWgt[e] = wgt[j]
				e++
			}
		}
		i++
		sub.XAdj[i] = e
	}
	return subIDs
}

// InitialPartition produces the k-way partition of the coarsest graph and
// charges it to the timeline as the paper's "initial partitioning" phase.
func InitialPartition(g *graph.Graph, k int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline) []int {
	rng := rand.New(rand.NewSource(o.Seed + 7919))
	var acct perfmodel.ThreadCost
	part := RecursiveBisect(g, k, o.UBFactor, rng, &acct)
	tl.Append("initpart", perfmodel.LocCPU, m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))
	return part
}
