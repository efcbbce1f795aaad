package metis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
)

// newGainBuckets returns empty buckets for n vertices with |gain| <= wmax.
func newGainBuckets(n, wmax int) *gainBuckets {
	b := &gainBuckets{}
	b.init(n, wmax)
	b.Reset()
	return b
}

func TestGainBucketsBasicOps(t *testing.T) {
	b := newGainBuckets(10, 5)
	if b.Len() != 0 || b.PeekMax() != -1 {
		t.Fatal("fresh buckets should be empty")
	}
	b.Insert(3, 2)
	b.Insert(7, -4)
	b.Insert(1, 5)
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
	if got := b.PeekMax(); got != 1 {
		t.Errorf("PeekMax = %d, want 1 (gain 5)", got)
	}
	b.Remove(1)
	if got := b.PeekMax(); got != 3 {
		t.Errorf("PeekMax after removal = %d, want 3", got)
	}
	b.Update(7, 4)
	if got := b.PeekMax(); got != 7 {
		t.Errorf("PeekMax after update = %d, want 7", got)
	}
	if !b.Contains(7) || b.Contains(1) {
		t.Error("Contains wrong")
	}
	if b.Gain(7) != 4 {
		t.Errorf("Gain = %d, want 4", b.Gain(7))
	}
	b.Remove(1) // removing an absent vertex is a no-op
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}

func TestGainBucketsInsertTwicePanics(t *testing.T) {
	b := newGainBuckets(4, 3)
	b.Insert(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("double insert should panic")
		}
	}()
	b.Insert(0, 2)
}

func TestGainBucketsSameGainChain(t *testing.T) {
	// Multiple vertices at the same gain exercise the linked-list paths.
	b := newGainBuckets(6, 2)
	for v := 0; v < 6; v++ {
		b.Insert(v, 1)
	}
	// Remove from middle, head, and tail of the chain.
	b.Remove(2)
	b.Remove(5) // most recently inserted = head
	b.Remove(0) // first inserted = tail
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	seen := map[int]bool{}
	for b.Len() > 0 {
		v := b.PeekMax()
		if v == -1 || seen[v] {
			t.Fatal("chain corrupted")
		}
		seen[v] = true
		b.Remove(v)
	}
	for _, v := range []int{1, 3, 4} {
		if !seen[v] {
			t.Errorf("vertex %d lost from chain", v)
		}
	}
}

func TestRefineBisectionFMImprovesCut(t *testing.T) {
	g := mustGrid(t, 24, 24)
	rng := rand.New(rand.NewSource(8))
	part := make([]int, g.NumVertices())
	w := 0
	for v := range part {
		part[v] = rng.Intn(2)
		if part[v] == 0 {
			w++
		}
	}
	before := graph.EdgeCut(g, part)
	RefineBisectionFM(g, part, 0.5, 1.05, nil)
	after := graph.EdgeCut(g, part)
	if after >= before {
		t.Errorf("FM did not improve the cut: %d -> %d", before, after)
	}
	if imb := graph.Imbalance(g, part, 2); imb > 1.1 {
		t.Errorf("FM broke balance: %g", imb)
	}
	// A random bisection of a 24x24 grid cuts ~550; FM from random should
	// land far below half of that.
	if after > before/2 {
		t.Errorf("FM result %d not much better than random %d", after, before)
	}
}

func TestRefineBisectionFMRespectsWeights(t *testing.T) {
	// One very heavy vertex: FM must keep the sides within the weighted
	// balance bound.
	b := graph.NewBuilder(10)
	for v := 0; v < 9; v++ {
		if err := b.AddEdge(v, v+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetVertexWeight(0, 8); err != nil {
		t.Fatal(err)
	}
	g := b.MustBuild()
	part := make([]int, 10)
	for v := 5; v < 10; v++ {
		part[v] = 1
	}
	RefineBisectionFM(g, part, 0.5, 1.2, nil)
	if imb := graph.Imbalance(g, part, 2); imb > 1.45 {
		t.Errorf("imbalance %g after FM with heavy vertex", imb)
	}
}

func TestRefineBisectionFMEmptyAndTiny(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	RefineBisectionFM(empty, nil, 0.5, 1.03, nil) // must not panic
	single := graph.NewBuilder(1).MustBuild()
	part := []int{0}
	RefineBisectionFM(single, part, 0.5, 1.03, nil)
	if part[0] != 0 && part[0] != 1 {
		t.Error("single vertex corrupted")
	}
}

// Property: FM never worsens the cut and never breaks a generous balance
// bound, starting from any random bisection of a random graph.
func TestRefineBisectionFMProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := 16 + int(szRaw)%120
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			if err := b.AddEdge(rng.Intn(v), v, 1+rng.Intn(4)); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				if err := b.AddEdge(u, v, 1+rng.Intn(4)); err != nil {
					return false
				}
			}
		}
		g := b.MustBuild()
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(2)
		}
		before := graph.EdgeCut(g, part)
		RefineBisectionFM(g, part, 0.5, 1.1, nil)
		after := graph.EdgeCut(g, part)
		if err := graph.CheckPartition(g, part, 2); err != nil {
			// A one-sided random start may legitimately stay one-sided
			// only when n < 2, which cannot happen here.
			return false
		}
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FM and the linear-scan refiner should reach comparable quality; FM is
// the asymptotically right structure.
func TestFMComparableToLinearRefiner(t *testing.T) {
	g, err := gen.Delaunay(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mk := func() []int {
		p := make([]int, g.NumVertices())
		r2 := rand.New(rand.NewSource(77))
		for v := range p {
			p[v] = r2.Intn(2)
		}
		return p
	}
	_ = rng
	linear := mk()
	RefineBisection(g, linear, 0.5, 1.05, nil)
	fm := mk()
	RefineBisectionFM(g, fm, 0.5, 1.05, nil)
	lc, fc := graph.EdgeCut(g, linear), graph.EdgeCut(g, fm)
	if float64(fc) > 2.0*float64(lc)+50 {
		t.Errorf("FM cut %d far worse than linear refiner %d", fc, lc)
	}
}
