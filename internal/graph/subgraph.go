package graph

import "fmt"

// InducedSubgraph returns the subgraph induced by the given vertices
// (which must be distinct and in range) along with the slice mapping each
// subgraph vertex back to its original id. Edges to vertices outside the
// selection are dropped.
func InducedSubgraph(g *Graph, vs []int) (*Graph, []int, error) {
	// inv maps an original id to its subgraph id, -1 when not selected.
	inv := make([]int, g.NumVertices())
	for i := range inv {
		inv[i] = -1
	}
	edges := 0
	for i, v := range vs {
		if v < 0 || v >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: vertex %d out of range", v)
		}
		if inv[v] >= 0 {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: duplicate vertex %d", v)
		}
		inv[v] = i
	}
	// Counting pass, so the edge arrays are allocated at their exact size.
	for _, v := range vs {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if inv[u] >= 0 {
				edges++
			}
		}
	}
	sub := &Graph{
		XAdj:   make([]int, len(vs)+1),
		Adjncy: make([]int, edges),
		AdjWgt: make([]int, edges),
		VWgt:   make([]int, len(vs)),
	}
	e := 0
	for i, v := range vs {
		sub.VWgt[i] = g.VWgt[v]
		adj, wgt := g.Neighbors(v)
		for j, u := range adj {
			if iu := inv[u]; iu >= 0 {
				sub.Adjncy[e] = iu
				sub.AdjWgt[e] = wgt[j]
				e++
			}
		}
		sub.XAdj[i+1] = e
	}
	orig := make([]int, len(vs))
	copy(orig, vs)
	return sub, orig, nil
}
