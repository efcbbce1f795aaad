package metis

import (
	"math/rand"
	"testing"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/perfmodel"
)

// patchyGraph returns a graph with weighted edges, several connected
// components of different sizes, and isolated vertices, so GGGP's frontier
// runs dry and the disconnected-remainder fallback absorbs vertices.
func patchyGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 90
	b := graph.NewBuilder(n)
	// Components [0,40), [40,60), [60,75) with random chords; [75,90) is
	// isolated apart from one edge (80,81).
	for _, c := range [][2]int{{0, 40}, {40, 60}, {60, 75}} {
		for v := c[0] + 1; v < c[1]; v++ {
			u := c[0] + rng.Intn(v-c[0])
			if err := b.AddEdge(u, v, 1+rng.Intn(5)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < c[1]-c[0]; i++ {
			u, v := c[0]+rng.Intn(c[1]-c[0]), c[0]+rng.Intn(c[1]-c[0])
			if u != v {
				if err := b.AddEdge(u, v, 1+rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := b.AddEdge(80, 81, 3); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if err := b.SetVertexWeight(v, 1+rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGrowRegionTracksCut checks the cut GGGP tracks while growing against
// a full recount, from every seed vertex and for region targets from one
// vertex up to the whole graph, on graphs where the frontier runs dry.
func TestGrowRegionTracksCut(t *testing.T) {
	grid, err := gen.Grid2D(9, 11)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"patchy1": patchyGraph(t, 1),
		"patchy2": patchyGraph(t, 2),
		"grid":    grid,
	} {
		var w bisectWork
		n := g.NumVertices()
		w.prepare(g)
		total := g.TotalVertexWeight()
		for seed := 0; seed < n; seed++ {
			for _, target := range []int{1, total / 5, total / 2, total - 1, total} {
				w.growRegion(g, seed, target, nil)
				if want := graph.EdgeCut(g, w.part); w.cut != want {
					t.Fatalf("%s seed %d target %d: tracked cut %d, EdgeCut %d", name, seed, target, w.cut, want)
				}
			}
		}
	}
}

// refRecursiveBisect is recursive bisection as written without a shared
// workspace: a fresh Bisect per node, graph.InducedSubgraph for the sides,
// and a new label slice per level.
func refRecursiveBisect(g *graph.Graph, k int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	return refRecursiveBisectWith(Bisect, g, k, ubfactor, rng, acct)
}

// refRecursiveBisectWith is refRecursiveBisect with bisect in place of
// Bisect.
func refRecursiveBisectWith(bisect func(*graph.Graph, float64, float64, *rand.Rand, *perfmodel.ThreadCost) []int,
	g *graph.Graph, k int, ubfactor float64, rng *rand.Rand, acct *perfmodel.ThreadCost) []int {
	part := make([]int, g.NumVertices())
	if k <= 1 {
		return part
	}
	k1 := (k + 1) / 2
	ub := 1 + (ubfactor-1)*0.75
	bis := bisect(g, float64(k1)/float64(k), ub, rng, acct)
	var side0, side1 []int
	for v, s := range bis {
		if s == 0 {
			side0 = append(side0, v)
		} else {
			side1 = append(side1, v)
		}
	}
	if (len(side0) == 0 || len(side1) == 0) && g.NumVertices() >= 2 {
		side0, side1 = side0[:0], side1[:0]
		pivot := min(max(g.NumVertices()*k1/k, 1), g.NumVertices()-1)
		for v := 0; v < g.NumVertices(); v++ {
			if v < pivot {
				side0 = append(side0, v)
			} else {
				side1 = append(side1, v)
			}
		}
	}
	sub0, orig0, err := graph.InducedSubgraph(g, side0)
	if err != nil {
		panic(err)
	}
	sub1, orig1, err := graph.InducedSubgraph(g, side1)
	if err != nil {
		panic(err)
	}
	if acct != nil {
		acct.Ops += float64(len(g.Adjncy))
		acct.Rand += float64(len(g.Adjncy))
	}
	p0 := refRecursiveBisectWith(bisect, sub0, k1, ubfactor, rng, acct)
	p1 := refRecursiveBisectWith(bisect, sub1, k-k1, ubfactor, rng, acct)
	for i, v := range orig0 {
		part[v] = p0[i]
	}
	for i, v := range orig1 {
		part[v] = k1 + p1[i]
	}
	return part
}

// TestRecursiveBisectMatchesReference checks that the shared workspace
// changes nothing: labels, random-number consumption and the modeled
// charge equal those of the workspace-free recursion, including on
// disconnected graphs with isolated vertices and where k exceeds what the
// graph can split evenly.
func TestRecursiveBisectMatchesReference(t *testing.T) {
	ldoor, err := gen.TableI(gen.ClassLDoor, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Five isolated vertices, one heavy: a side can get fewer vertices
	// than parts, down to single-vertex and empty subgraphs.
	b := graph.NewBuilder(5)
	if err := b.SetVertexWeight(2, 100); err != nil {
		t.Fatal(err)
	}
	isolated, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"patchy":   patchyGraph(t, 3),
		"ldoor":    ldoor,
		"grid":     mustGrid(t, 12, 13),
		"tiny":     mustGrid(t, 1, 3),
		"isolated": isolated,
	} {
		for _, k := range []int{2, 3, 4, 5, 7, 16, 64} {
			rngA, rngB := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
			var acctA, acctB perfmodel.ThreadCost
			got := RecursiveBisect(g, k, 1.03, rngA, &acctA)
			want := refRecursiveBisect(g, k, 1.03, rngB, &acctB)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s k=%d: vertex %d in part %d, reference %d", name, k, v, got[v], want[v])
				}
			}
			if acctA != acctB {
				t.Errorf("%s k=%d: charge %+v, reference %+v", name, k, acctA, acctB)
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Errorf("%s k=%d: random streams diverged", name, k)
			}
		}
	}
}

// TestRecursiveBisectAllocsBounded guards the per-call workspace: one
// RecursiveBisect at k=64 makes 63 bisections, yet allocates a fixed
// handful of times (the result, the workspace and its arrays), not a few
// per bisection; a reused Bisector allocates nothing.
func TestRecursiveBisectAllocsBounded(t *testing.T) {
	g, err := gen.TableI(gen.ClassLDoor, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	var acct perfmodel.ThreadCost
	allocs := testing.AllocsPerRun(3, func() {
		RecursiveBisect(g, 64, 1.03, rand.New(rand.NewSource(1)), &acct)
	})
	if allocs > 30 {
		t.Errorf("RecursiveBisect at k=64 allocated %v times per call, want at most 30", allocs)
	}
	// A Bisector keeps its workspace across calls: once it has seen the
	// graph, further recursive bisections of it allocate nothing.
	var b Bisector
	part := make([]int, g.NumVertices())
	rng := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(3, func() { b.RecursiveBisect(g, 64, 1.03, rng, &acct, part) }); allocs > 0 {
		t.Errorf("a reused Bisector allocated %v times per call, want none", allocs)
	}
}
