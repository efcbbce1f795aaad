package gio

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"gpmetis/internal/graph"
)

// limitSizes lowers the header caps for the duration of a fuzz target so
// a mutated header that is accepted (a .gr file with no arcs is valid at
// any vertex count) cannot build a graph of gigabytes.
func limitSizes(f *testing.F) {
	oldV, oldE := MaxVertices, MaxEdges
	MaxVertices, MaxEdges = 1<<12, 1<<14
	f.Cleanup(func() { MaxVertices, MaxEdges = oldV, oldE })
}

// FuzzRead checks the reader's contract on arbitrary bytes: it returns a
// valid graph or an error, and never panics. Accepted graphs must pass
// Validate and survive a Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		// Valid inputs across the format's feature matrix.
		"7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n",
		"3 2 011\n4 2 7\n6 1 7 3 2\n9 2 2\n",
		"2 1 010\n5 2\n3 1\n",
		"3 1\n2\n1\n\n",
		"0 0\n",
		// Known-rejected shapes, to seed the error paths.
		"2 1\n3\n1\n",           // neighbor out of range
		"2 5\n2\n1\n",           // edge count mismatch
		"2 1 001\n2 5\n1 7\n",   // asymmetric weights
		"2 1\n2\n\n",            // one-sided listing
		"2 1\n2 2\n1\n",         // duplicate neighbor
		"1 0\n1\n",              // self loop
		"999999999 0\n",         // header over the size cap
		"2 1 100\n2\n1\n",       // unsupported vertex sizes
		"% c\n\n2 1\n02\n01\n",  // comments, blanks, leading zeros
		"2 1 001\n2 -3\n1 -3\n", // non-positive edge weight
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid graph: %v", verr)
		}
		var buf bytes.Buffer
		if werr := Write(&buf, g); werr != nil {
			t.Fatalf("Write failed on accepted graph: %v", werr)
		}
		h, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("Read rejected its own Write output: %v", rerr)
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: %v -> %v", g, h)
		}
	})
}

// FuzzReadGR does the same for the DIMACS9 .gr reader.
func FuzzReadGR(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		"c comment\np sp 4 5\na 1 2 10\na 2 1 10\na 2 3 7\na 3 2 5\na 1 1 3\n",
		"p sp 2 1\na 1 2 1\na 2 1 1\n",
		"p sp 0 0\n",
		"a 1 2 3\n",
		"p sp 999999999 1\n",
		"p sp 1048576 0\n", // more vertices than bytes
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGR(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadGR accepted an invalid graph: %v", verr)
		}
	})
}

// TestHugeHeaderAllocatesLittle: a header declaring 2^24 vertices with
// no body behind it is rejected with the same error as any truncated
// input, and the readers allocate for the bytes they saw, not for the
// count the header claimed.
func TestHugeHeaderAllocatesLittle(t *testing.T) {
	cases := []struct {
		name, in, want string
		read           func(io.Reader) (*graph.Graph, error)
	}{
		{"metis", "16777216 0\n", "gio: vertex 1: unexpected EOF", Read},
		{"gr", "p sp 16777216 1\nq\n", `gio: unknown line type "q"`, ReadGR},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := tc.read(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte input allocated %d bytes, want < 1 MiB",
				tc.name, len(tc.in), got)
		}
	}
}

// TestGRVerticesBoundedByInput: a .gr problem line declaring more
// vertices than the input has bytes is refused with the typed error,
// having allocated for the bytes seen rather than for the declared
// vertices (32 B each once built), while a graph of isolated vertices
// within the bound is still read.
func TestGRVerticesBoundedByInput(t *testing.T) {
	for _, in := range []string{"p sp 1048576 0\n", "p sp 4194304 0\n", "p sp 11 0\n"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ReadGR(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrVerticesExceedInput) {
			t.Errorf("%q: error %v, want ErrVerticesExceedInput", in, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%q: rejecting a %d-byte input allocated %d bytes, want < 1 MiB", in, len(in), got)
		}
	}
	g, err := ReadGR(strings.NewReader("p sp 12 1\na 1 2 3\n"))
	if err != nil || g.NumVertices() != 12 || g.NumEdges() != 1 {
		t.Fatalf("12 vertices in 20 bytes: graph %v, err %v", g, err)
	}
}

// TestReadRejectsCorruptAdjacency pins the reader's hardened rejections:
// every class of inconsistency between a line and the rest of the file is
// an error, not a silently-patched graph.
func TestReadRejectsCorruptAdjacency(t *testing.T) {
	cases := []struct{ name, in, wantSub string }{
		{"one-sided edge", "2 1\n2\n\n", "listed by vertex"},
		{"one-sided from upper", "2 1\n\n1\n", "listed by vertex"},
		{"asymmetric weights", "2 1 001\n2 5\n1 7\n", "asymmetric weights"},
		{"duplicate neighbor", "3 2\n2 2\n1 1\n\n", "duplicate neighbor"},
		{"self loop", "1 1\n1\n", "self loop"},
		{"vertex count over cap", "999999999999 0\n", "exceeds limit"},
		{"edge count over cap", "2 999999999999\n2\n1\n", "exceeds limit"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: Read should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}
