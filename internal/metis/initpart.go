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
	w.parallel = w.hasParallelArcs(g)
	return w.bisect(g, frac0, ubfactor, rng, acct)
}

// bisectWork is the scratch storage of one RecursiveBisect call, reused by
// every bisection down its recursion. Subgraphs only shrink, so arrays
// sized by the first bisection serve all later ones.
type bisectWork struct {
	part, bestPart []int
	// wdeg is each vertex's weighted degree.
	wdeg []int
	// parallel is set when some vertex lists a neighbor twice; subgraphs
	// inherit it.
	parallel bool
	// frontier is GGGP's max-heap of the side-1 vertices adjacent to the
	// region; pos[v] is v's index in it, or -1. entries counts the
	// vertices that have entered it during the current try.
	frontier []frontierEntry
	pos      []int
	entries  int
	fm       fmWork
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

// hasParallelArcs reports whether some vertex of g lists a neighbor more
// than once, marking each vertex's neighbors in w.local.
func (w *bisectWork) hasParallelArcs(g *graph.Graph) bool {
	n := g.NumVertices()
	w.local = resize(w.local, n)
	mark := w.local
	for i := range mark {
		mark[i] = -1
	}
	for v := 0; v < n; v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if mark[u] == v {
				return true
			}
			mark[u] = v
		}
	}
	return false
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
	w.prepare(g)
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

// prepare sizes the GGGP arrays for g and computes its weighted degrees.
func (w *bisectWork) prepare(g *graph.Graph) {
	n := g.NumVertices()
	w.part = resize(w.part, n)
	w.pos = resize(w.pos, n)
	if cap(w.frontier) < n {
		w.frontier = make([]frontierEntry, 0, n)
	}
	w.wdeg = resize(w.wdeg, n)
	for v := range w.wdeg {
		d := 0
		for _, x := range g.AdjWgt[g.XAdj[v]:g.XAdj[v+1]] {
			d += x
		}
		w.wdeg[v] = d
	}
}

// growRegion is one GGGP try: starting with every vertex on side 1, it
// grows side 0 from seed until it weighs at least target0, leaving the
// labels in w.part and their edge cut in w.cut. Each step absorbs the
// frontier vertex of largest gain, the earliest to enter on ties, and is
// charged for a scan of the frontier.
func (w *bisectWork) growRegion(g *graph.Graph, seed, target0 int, acct *perfmodel.ThreadCost) {
	part, pos := w.part, w.pos
	for i := range part {
		part[i] = 1
		pos[i] = -1
	}
	w.frontier = w.frontier[:0]
	w.entries = 0
	w.w0, w.cut = 0, 0
	// Vertices only leave side 1, so the lowest one left never moves
	// back: rest is where the next fallback search starts.
	rest := 0

	w.grow(g, seed, acct)
	for w.w0 < target0 {
		if acct != nil {
			acct.Ops += float64(len(w.frontier))
		}
		bi := -1
		if len(w.frontier) > 0 {
			bi = w.popMax()
		} else {
			// Disconnected remainder: absorb the lowest side-1 vertex.
			for ; rest < len(part); rest++ {
				if part[rest] == 1 {
					bi = rest
					break
				}
			}
			if bi == -1 {
				break
			}
		}
		w.grow(g, bi, acct)
	}
}

// grow moves v to side 0: it updates the region's weight and cut, adds
// v's side-1 neighbors to the frontier with their gains (the cut decrease
// of moving them), and raises the gains of those already there.
func (w *bisectWork) grow(g *graph.Graph, v int, acct *perfmodel.ThreadCost) {
	part := w.part
	part[v] = 0
	w.w0 += g.VWgt[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if part[u] == 0 {
			w.cut -= wgt[i] // edge (u,v) is now inside side 0
			continue
		}
		w.cut += wgt[i]
		if at := w.pos[u]; at >= 0 {
			// v moved to side 0: u's gain rises by 2*w(u,v).
			w.frontier[at].gain += 2 * wgt[i]
			w.siftUp(at)
			continue
		}
		// u had no side-0 neighbor before v: without parallel arcs its
		// gain is w(u,v) minus its other arcs' weight.
		deg := g.Degree(u)
		var gain int
		if w.parallel {
			uadj, uwgt := g.Neighbors(u)
			for j, x := range uadj {
				if part[x] == 0 {
					gain += uwgt[j]
				} else {
					gain -= uwgt[j]
				}
			}
		} else {
			gain = 2*wgt[i] - w.wdeg[u]
		}
		// The modeled bisection still scans u's arcs.
		if acct != nil {
			acct.Ops += float64(deg)
			acct.Rand += float64(deg)
		}
		w.push(u, gain)
	}
	if acct != nil {
		acct.Ops += float64(len(adj))
		acct.Rand += float64(len(adj))
	}
}

// frontierEntry is a frontier vertex with its heap key: its gain, and its
// order of entry into the frontier for ties.
type frontierEntry struct {
	gain, entry, v int
}

// before reports whether a outranks b: a larger gain, or an equal gain
// and an earlier entry, which is the first of the largest gains in entry
// order.
func (a frontierEntry) before(b frontierEntry) bool {
	return a.gain > b.gain || a.gain == b.gain && a.entry < b.entry
}

// push adds u with the given gain to the frontier heap.
func (w *bisectWork) push(u, gain int) {
	w.frontier = append(w.frontier, frontierEntry{gain: gain, entry: w.entries, v: u})
	w.entries++
	w.siftUp(len(w.frontier) - 1)
}

// siftUp restores the heap above index i after its gain rose. Gains in
// the frontier only rise, so no update needs a sift-down.
func (w *bisectWork) siftUp(i int) {
	h := w.frontier
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		w.pos[h[i].v] = i
		i = p
	}
	h[i] = e
	w.pos[e.v] = i
}

// popMax removes and returns the frontier's first vertex.
func (w *bisectWork) popMax() int {
	h := w.frontier
	top := h[0].v
	w.pos[top] = -1
	last := len(h) - 1
	e := h[last]
	h = h[:last]
	w.frontier = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		w.pos[h[i].v] = i
		i = c
	}
	h[i] = e
	w.pos[e.v] = i
	return top
}

// RecursiveBisect partitions g into k parts by recursive bisection,
// splitting k as evenly as possible at each level (Section II.A.2). The
// returned labels are in [0,k).
func RecursiveBisect(g *graph.Graph, k int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	part := make([]int, g.NumVertices())
	var b Bisector
	b.RecursiveBisect(g, k, ubfactor, rng, acct, part)
	return part
}

// Bisector runs RecursiveBisect on one workspace kept across calls, for
// callers that partition the same graph several times (mt-metis's
// initial partitioning tries). The zero Bisector is ready to use; it is
// not safe for concurrent use.
type Bisector struct {
	w bisectWork
}

// RecursiveBisect is the package function RecursiveBisect writing its
// labels into part, which must have one entry per vertex of g.
func (b *Bisector) RecursiveBisect(g *graph.Graph, k int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost, part []int) {
	n := g.NumVertices()
	clear(part)
	if k <= 1 || n == 0 {
		return
	}
	w := &b.w
	// A balanced recursion path holds about two copies of g in the arena.
	if size := 2 * (3*n + 2*len(g.Adjncy)); len(w.arena) < size {
		w.arena = make([]int, size)
	}
	w.top = 0
	if depth := bits.Len(uint(k)); len(w.subs) < depth {
		w.subs = make([][2]graph.Graph, depth)
	}
	w.parallel = w.hasParallelArcs(g)
	ids := w.alloc(n)
	for v := range ids {
		ids[v] = v
	}
	w.recurse(g, ids, k, 0, 0, ubfactor, rng, acct, part)
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
