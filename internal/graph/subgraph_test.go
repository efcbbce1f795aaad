package graph

import (
	"slices"
	"strings"
	"testing"
)

// weighted5 builds a 5-vertex graph with distinct vertex and edge weights:
// the 4-cycle 0-1-2-3 plus the chord 0-2 and the pendant edge 3-4.
func weighted5(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	for v, w := range []int{10, 11, 12, 13, 14} {
		if err := b.SetVertexWeight(v, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][3]int{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 0, 4}, {0, 2, 5}, {3, 4, 6}} {
		if err := b.AddEdge(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInducedSubgraph(t *testing.T) {
	g := weighted5(t)
	// Select 3, 0, 2 in that order: subgraph ids 0, 1, 2. Vertex 1 and 4
	// are left out, so edges 0-1, 1-2 and 3-4 are dropped.
	vs := []int{3, 0, 2}
	sub, orig, err := InducedSubgraph(g, vs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("subgraph invalid: %v", err)
	}
	if !slices.Equal(orig, vs) {
		t.Errorf("orig = %v, want %v", orig, vs)
	}
	vs[0] = 4 // orig must not alias the caller's slice
	if orig[0] != 3 {
		t.Error("orig aliases the input slice")
	}
	if want := []int{13, 10, 12}; !slices.Equal(sub.VWgt, want) {
		t.Errorf("VWgt = %v, want %v", sub.VWgt, want)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("subgraph has %d vertices, %d edges; want 3, 3", sub.NumVertices(), sub.NumEdges())
	}
	// Kept edges, by original endpoints: 3-0 (4), 2-3 (3), 0-2 (5).
	wantW := map[[2]int]int{{0, 1}: 4, {0, 2}: 3, {1, 2}: 5}
	for v := 0; v < sub.NumVertices(); v++ {
		adj, wgt := sub.Neighbors(v)
		for i, u := range adj {
			key := [2]int{min(u, v), max(u, v)}
			if w, ok := wantW[key]; !ok || w != wgt[i] {
				t.Errorf("edge %d-%d weight %d, want %d (present %v)", v, u, wgt[i], w, ok)
			}
		}
	}
	// Exact-size edge arrays: no slack past XAdj's last offset.
	if len(sub.Adjncy) != sub.XAdj[3] || len(sub.AdjWgt) != sub.XAdj[3] {
		t.Errorf("edge arrays len %d/%d, want %d", len(sub.Adjncy), len(sub.AdjWgt), sub.XAdj[3])
	}
}

func TestInducedSubgraphNoEdges(t *testing.T) {
	g := weighted5(t)
	sub, orig, err := InducedSubgraph(g, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 2 || sub.NumEdges() != 0 || !slices.Equal(orig, []int{1, 4}) {
		t.Errorf("got %d vertices, %d edges, orig %v", sub.NumVertices(), sub.NumEdges(), orig)
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subgraph invalid: %v", err)
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := weighted5(t)
	for _, tc := range []struct {
		vs   []int
		want string
	}{
		{[]int{0, 2, 0}, "duplicate vertex 0"},
		{[]int{1, 5}, "vertex 5 out of range"},
		{[]int{-1}, "vertex -1 out of range"},
	} {
		sub, orig, err := InducedSubgraph(g, tc.vs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("InducedSubgraph(%v) error = %v, want %q", tc.vs, err, tc.want)
		}
		if sub != nil || orig != nil {
			t.Errorf("InducedSubgraph(%v) returned results with an error", tc.vs)
		}
	}
}
