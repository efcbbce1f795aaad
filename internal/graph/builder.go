package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates undirected edges and produces a validated CSR Graph.
// Duplicate edges are merged by summing their weights; self loops are
// rejected. The zero Builder is not usable; construct with NewBuilder.
type Builder struct {
	n      int
	vwgt   []int // weights up to the highest vertex set; the rest weigh 1
	us, vs []int
	ws     []int
}

// NewBuilder returns a Builder for a graph with n vertices, all with
// vertex weight 1 until overridden by SetVertexWeight. It allocates
// nothing per vertex: the arrays grow with the weights set and are
// sized to n only by Build, so a reader handed a huge declared count
// pays for it only once the input has backed it.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder(%d): negative vertex count", n))
	}
	return &Builder{n: n}
}

// SetVertexWeight sets the computation weight of vertex v.
func (b *Builder) SetVertexWeight(v, w int) error {
	if v < 0 || v >= b.n {
		return fmt.Errorf("graph: SetVertexWeight: vertex %d out of range [0,%d)", v, b.n)
	}
	if w <= 0 {
		return fmt.Errorf("graph: SetVertexWeight: weight %d must be positive", w)
	}
	for len(b.vwgt) <= v {
		b.vwgt = append(b.vwgt, 1)
	}
	b.vwgt[v] = w
	return nil
}

// AddEdge records the undirected edge {u,v} with weight w. Repeated calls
// for the same pair accumulate weight.
func (b *Builder) AddEdge(u, v, w int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: AddEdge(%d,%d): vertex out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: AddEdge(%d,%d): self loops are not allowed", u, v)
	}
	if w <= 0 {
		return fmt.Errorf("graph: AddEdge(%d,%d): weight %d must be positive", u, v, w)
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	return nil
}

// NumPendingEdges returns the number of AddEdge calls recorded so far
// (before duplicate merging).
func (b *Builder) NumPendingEdges() int { return len(b.us) }

// Build assembles the CSR graph. Duplicate undirected edges are merged by
// summing weights. The result always satisfies Graph.Validate.
func (b *Builder) Build() (*Graph, error) {
	type arc struct{ u, v, w int }
	// Canonicalize every undirected edge as (min,max) and sort to merge
	// duplicates deterministically.
	arcs := make([]arc, 0, len(b.us))
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u > v {
			u, v = v, u
		}
		arcs = append(arcs, arc{u, v, b.ws[i]})
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].u != arcs[j].u {
			return arcs[i].u < arcs[j].u
		}
		return arcs[i].v < arcs[j].v
	})
	merged := arcs[:0]
	for _, a := range arcs {
		if n := len(merged); n > 0 && merged[n-1].u == a.u && merged[n-1].v == a.v {
			merged[n-1].w += a.w
			continue
		}
		merged = append(merged, a)
	}

	g := &Graph{
		XAdj: make([]int, b.n+1),
		VWgt: make([]int, b.n),
	}
	copy(g.VWgt, b.vwgt)
	for v := len(b.vwgt); v < b.n; v++ {
		g.VWgt[v] = 1
	}
	deg := make([]int, b.n)
	for _, a := range merged {
		deg[a.u]++
		deg[a.v]++
	}
	for v := 0; v < b.n; v++ {
		g.XAdj[v+1] = g.XAdj[v] + deg[v]
	}
	m := g.XAdj[b.n]
	g.Adjncy = make([]int, m)
	g.AdjWgt = make([]int, m)
	fill := make([]int, b.n)
	copy(fill, g.XAdj[:b.n])
	for _, a := range merged {
		g.Adjncy[fill[a.u]] = a.v
		g.AdjWgt[fill[a.u]] = a.w
		fill[a.u]++
		g.Adjncy[fill[a.v]] = a.u
		g.AdjWgt[fill[a.v]] = a.w
		fill[a.v]++
	}
	return g, nil
}

// MustBuild is Build but panics on error, for tests and generators whose
// inputs are constructed to be valid.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromCSR wraps pre-built CSR arrays in a Graph after validating them. The
// arrays are used directly without copying.
func FromCSR(xadj, adjncy, adjwgt, vwgt []int) (*Graph, error) {
	g := &Graph{XAdj: xadj, Adjncy: adjncy, AdjWgt: adjwgt, VWgt: vwgt}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
