package gio

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
)

func TestReadPlain(t *testing.T) {
	// The classic 7-vertex example from the Metis manual.
	in := `% a comment
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 7 || g.NumEdges() != 11 {
		t.Fatalf("got %v, want V=7 E=11", g)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if !g.HasEdge(0, 4) || !g.HasEdge(3, 6) || g.HasEdge(0, 6) {
		t.Error("adjacency mismatch")
	}
}

func TestReadWeighted(t *testing.T) {
	in := `3 2 011
4 2 7
6 1 7 3 2
9 2 2
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.VWgt[0] != 4 || g.VWgt[1] != 6 || g.VWgt[2] != 9 {
		t.Errorf("vertex weights = %v", g.VWgt)
	}
	if g.EdgeWeight(0, 1) != 7 || g.EdgeWeight(1, 2) != 2 {
		t.Error("edge weights wrong")
	}
}

func TestReadVertexWeightsOnly(t *testing.T) {
	in := `2 1 010
5 2
3 1
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.VWgt[0] != 5 || g.VWgt[1] != 3 {
		t.Errorf("vertex weights = %v", g.VWgt)
	}
	if g.EdgeWeight(0, 1) != 1 {
		t.Error("edge weight should default to 1")
	}
}

func TestReadIsolatedVertexBlankLine(t *testing.T) {
	in := "3 1\n2\n1\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 0 {
		t.Errorf("vertex 3 should be isolated, degree %d", g.Degree(2))
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"header too long", "1 2 3 4 5\n"},
		{"negative n", "-1 0\n"},
		{"vertex sizes unsupported", "2 1 100\n2\n1\n"},
		{"multiconstraint unsupported", "2 1 010 2\n1 2\n1 1\n"},
		{"neighbor out of range", "2 1\n3\n1\n"},
		{"self loop", "1 1\n1\n"},
		{"bad neighbor token", "2 1\nx\n1\n"},
		{"missing edge weight", "2 1 001\n2\n1 5\n"},
		{"bad vertex weight", "2 1 010\nx 2\n1 1\n"},
		{"truncated", "3 2\n2\n"},
		{"edge count mismatch", "2 5\n2\n1\n"},
	}
	for _, tc := range cases {
		if _, err := Read(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: Read should fail", tc.name)
		}
	}
}

func TestRoundTripPlain(t *testing.T) {
	g, err := gen.Grid2D(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, g)
}

func TestRoundTripWeighted(t *testing.T) {
	b := graph.NewBuilder(5)
	edges := [][3]int{{0, 1, 3}, {1, 2, 1}, {2, 3, 9}, {3, 4, 2}, {0, 4, 4}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], e[2]); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 5; v++ {
		if err := b.SetVertexWeight(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(t, b.MustBuild())
}

func TestRoundTripDelaunay(t *testing.T) {
	g, err := gen.Delaunay(300, 4)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, g)
}

func roundTrip(t *testing.T, g *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read after Write: %v", err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %v -> %v", g, h)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if h.VWgt[v] != g.VWgt[v] {
			t.Fatalf("vertex %d weight changed: %d -> %d", v, g.VWgt[v], h.VWgt[v])
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if h.EdgeWeight(v, u) != wgt[i] {
				t.Fatalf("edge (%d,%d) weight changed", v, u)
			}
		}
	}
}

func TestReadGR(t *testing.T) {
	in := `c USA-road-d style file
p sp 4 5
a 1 2 10
a 2 1 10
a 2 3 7
a 3 2 5
a 1 1 3
`
	g, err := ReadGR(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Errorf("V = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Errorf("E = %d, want 2 (arcs merged, self loop dropped)", g.NumEdges())
	}
	if w := g.EdgeWeight(1, 2); w != 5 {
		t.Errorf("asymmetric arc weights should keep the minimum: got %d", w)
	}
	if g.Degree(3) != 0 {
		t.Error("vertex 4 should be isolated")
	}
}

func TestReadGRErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"arc before header", "a 1 2 3\n"},
		{"bad problem line", "p xx 3 3\n"},
		{"short problem line", "p sp 3\n"},
		{"bad vertex count", "p sp x 3\n"},
		{"short arc", "p sp 2 1\na 1 2\n"},
		{"arc out of range", "p sp 2 1\na 1 9 5\n"},
		{"bad arc token", "p sp 2 1\na 1 x 5\n"},
		{"unknown line", "p sp 2 1\nz whatever\n"},
		{"no header", "c just a comment\n"},
	}
	for _, tc := range cases {
		if _, err := ReadGR(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ReadGR should fail", tc.name)
		}
	}
}

// Property: the parsers never panic on arbitrary input — they either
// return a graph or an error.
func TestParsersNeverPanicProperty(t *testing.T) {
	f := func(junk []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Read panicked on %q: %v", junk, r)
			}
		}()
		_, _ = Read(bytes.NewReader(junk))
		_, _ = ReadGR(bytes.NewReader(junk))
		_, _, _ = ReadPartition(bytes.NewReader(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// A few adversarial shapes that random bytes rarely hit.
	for _, s := range []string{
		"7 11\n", "2 1\n2 2 2\n1\n", "p sp 1 0\n", "1 0 011\n\n",
		"3 0\n\n\n\n", "1 1 001\n", "2 1\n02\n01\n",
	} {
		_, _ = Read(strings.NewReader(s))
		_, _ = ReadGR(strings.NewReader(s))
	}
}

// BenchmarkRead times Read on Delaunay triangulations in Metis text, the
// shape of the serving tier's requests. MB/s is input bytes parsed per
// second; B/op over the input size is the bytes allocated per input byte.
func BenchmarkRead(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		g, err := gen.Delaunay(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			b.Fatal(err)
		}
		text := buf.Bytes()
		b.Run(fmt.Sprintf("delaunay-%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
