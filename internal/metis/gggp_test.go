package metis

import (
	"math/rand"
	"testing"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/perfmodel"
)

// refGGGP holds the state of GGGP as written with a linear frontier: each
// step rescans the frontier for its first vertex of largest gain, and a
// vertex entering the frontier rescans its arcs for its gain.
type refGGGP struct {
	part, gain, frontier []int
	inFrontier           []bool
	w0, cut              int
}

// growRegion and grow below are the linear-frontier GGGP kept verbatim as
// the reference for the heap-based one.
func (w *refGGGP) growRegion(g *graph.Graph, seed, target0 int, acct *perfmodel.ThreadCost) {
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

func (w *refGGGP) grow(g *graph.Graph, v int, acct *perfmodel.ThreadCost) {
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

// refBisect is Bisect on the linear-frontier GGGP.
func refBisect(g *graph.Graph, frac0, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	best := make([]int, n)
	if n == 1 {
		return best
	}
	target0 := max(int(frac0*float64(g.TotalVertexWeight())), 1)
	w := &refGGGP{part: make([]int, n), gain: make([]int, n), inFrontier: make([]bool, n)}
	bestCut := -1
	for try := 0; try < gggpTries; try++ {
		w.growRegion(g, rng.Intn(n), target0, acct)
		if acct != nil {
			acct.Ops += float64(len(g.Adjncy))
			acct.SeqBytes += float64(8 * len(g.Adjncy))
		}
		if bestCut == -1 || w.cut < bestCut {
			bestCut = w.cut
			copy(best, w.part)
		}
	}
	RefineBisectionFM(g, best, frac0, ubfactor, acct)
	return best
}

// parallelArcGraph returns a grid in which some edges are listed twice in
// both endpoints' adjacency lists with equal weights, built with
// graph.FromCSR, which accepts such arcs.
func parallelArcGraph(t *testing.T) *graph.Graph {
	t.Helper()
	grid := mustGrid(t, 9, 10)
	n := grid.NumVertices()
	// Double every edge {u,v} with (u+v)%3 == 0.
	doubled := func(u, v int) bool { return (u+v)%3 == 0 }
	xadj := make([]int, n+1)
	var adjncy, adjwgt []int
	for v := 0; v < n; v++ {
		adj, _ := grid.Neighbors(v)
		for _, u := range adj {
			w := 1 + (u+v)%4
			adjncy = append(adjncy, u)
			adjwgt = append(adjwgt, w)
			if doubled(u, v) {
				adjncy = append(adjncy, u)
				adjwgt = append(adjwgt, w)
			}
		}
		xadj[v+1] = len(adjncy)
	}
	vwgt := make([]int, n)
	for v := range vwgt {
		vwgt[v] = 1 + v%3
	}
	g, err := graph.FromCSR(xadj, adjncy, adjwgt, vwgt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// gggpGraphs are the inputs the heap-based GGGP is checked on.
func gggpGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	ldoor, err := gen.TableI(gen.ClassLDoor, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	delaunay, err := gen.TableI(gen.ClassDelaunay, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ldoor":    ldoor,
		"delaunay": delaunay,
		"patchy":   patchyGraph(t, 4),
		"parallel": parallelArcGraph(t),
	}
}

// TestGrowRegionMatchesLinearFrontier checks one GGGP try of the heap
// frontier against the linear-frontier reference, from many seeds and for
// region targets from one vertex to the whole graph: the same labels, cut,
// region weight and charge.
func TestGrowRegionMatchesLinearFrontier(t *testing.T) {
	for name, g := range gggpGraphs(t) {
		n := g.NumVertices()
		var w bisectWork
		w.parallel = w.hasParallelArcs(g)
		if w.parallel != (name == "parallel") {
			t.Fatalf("%s: parallel arcs detected = %v", name, w.parallel)
		}
		w.prepare(g)
		ref := &refGGGP{part: make([]int, n), gain: make([]int, n), inFrontier: make([]bool, n)}
		total := g.TotalVertexWeight()
		for seed := 0; seed < n; seed += 1 + n/60 {
			for _, target := range []int{1, total / 5, total / 2, total - 1, total} {
				var got, want perfmodel.ThreadCost
				w.growRegion(g, seed, target, &got)
				ref.growRegion(g, seed, target, &want)
				for v := range ref.part {
					if w.part[v] != ref.part[v] {
						t.Fatalf("%s seed %d target %d: vertex %d on side %d, reference %d", name, seed, target, v, w.part[v], ref.part[v])
					}
				}
				if w.cut != ref.cut || w.w0 != ref.w0 {
					t.Fatalf("%s seed %d target %d: cut %d w0 %d, reference cut %d w0 %d", name, seed, target, w.cut, w.w0, ref.cut, ref.w0)
				}
				if got != want {
					t.Fatalf("%s seed %d target %d: charge %+v, reference %+v", name, seed, target, got, want)
				}
			}
		}
	}
}

// TestBisectMatchesLinearFrontier checks whole bisections and recursive
// bisections against the linear-frontier reference: the same labels,
// random-number consumption and charge.
func TestBisectMatchesLinearFrontier(t *testing.T) {
	for name, g := range gggpGraphs(t) {
		for _, frac0 := range []float64{0.5, 1.0 / 3} {
			rngA, rngB := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			var acctA, acctB perfmodel.ThreadCost
			got := Bisect(g, frac0, 1.03, rngA, &acctA)
			want := refBisect(g, frac0, 1.03, rngB, &acctB)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s frac0 %.2f: vertex %d on side %d, reference %d", name, frac0, v, got[v], want[v])
				}
			}
			if acctA != acctB {
				t.Errorf("%s frac0 %.2f: charge %+v, reference %+v", name, frac0, acctA, acctB)
			}
			if rngA.Int63() != rngB.Int63() {
				t.Errorf("%s frac0 %.2f: random streams diverged", name, frac0)
			}
		}
		for _, k := range []int{2, 5, 16} {
			rngA, rngB := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			var acctA, acctB perfmodel.ThreadCost
			got := RecursiveBisect(g, k, 1.03, rngA, &acctA)
			want := refRecursiveBisectWith(refBisect, g, k, 1.03, rngB, &acctB)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s k=%d: vertex %d in part %d, reference %d", name, k, v, got[v], want[v])
				}
			}
			if acctA != acctB {
				t.Errorf("%s k=%d: charge %+v, reference %+v", name, k, acctA, acctB)
			}
			if rngA.Int63() != rngB.Int63() {
				t.Errorf("%s k=%d: random streams diverged", name, k)
			}
		}
	}
}
