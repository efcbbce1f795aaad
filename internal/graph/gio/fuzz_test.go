package gio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

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

// FuzzReadDifferential holds Read to readReference, the map-based
// reader it replaced: on every input both accept or both reject, an
// accepted graph is the same graph, and a rejection is the same error.
// Only the symmetry violation reported may differ, since the reference
// picks one in map order.
func FuzzReadDifferential(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		"7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n",
		"3 2 011\n4 2 7\n6 1 7 3 2\n9 2 2\n",
		"3 2 011\n4 2 7\n6 3 2 1 7\n9 2 2\n", // a row out of order
		"2 1 010\n5 2\n3 1\n",
		"3 1\n2\n1\n\n",
		"0 0\n",
		"2 1\n3\n1\n",
		"2 5\n2\n1\n",
		"2 1 001\n2 5\n1 7\n",
		"2 1\n2\n\n",
		"2 1\n\n1\n",
		"3 2\n2 2\n1 1\n\n",
		"1 0\n1\n",
		"2 1 100\n2\n1\n",
		"% c\n\n2 1\n02\n01\n",
		"2 1 001\n2 -3\n1 -3\n",
		"2 1 001\n2 3\n1 -3\n",
		"2 1\n+2\n+1\n",                  // strconv.Atoi takes a sign
		"2 1\r\n2\r\n1\r\n",              // CRLF line ends
		"2 1\n\u00852\u00a0\n1\u3000\n",  // Unicode spaces separate
		"2 1\n\u2028% c\n2\n1",           // a comment after Unicode space
		"2 1\n2\xc2\n1\n",                // invalid UTF-8 is no space
		"3 1\n16777216\n",                // neighbor past the rows
		"3 1\n3 3\n",                     // duplicate past the rows
		"2 1\n9223372036854775808\n1\n",  // overflows int64
		"2 1\n20000000000000000000\n1\n", // wraps uint64 at the last digit
		"2 1 001\n2 -9223372036854775808\n1 1\n",
		"2 1 010 -5\n1 2\n1 1\n",
		"2 1 x1y\n2 1\n1 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		want, werr := readReference(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read error %v, reference error %v", err, werr)
		}
		if err != nil {
			if errClass(err) != errClass(werr) {
				t.Fatalf("Read error %q, reference error %q", err, werr)
			}
			return
		}
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("Read built %+v, reference built %+v", g, want)
		}
	})
}

// errClass is an error's message, except that every symmetry violation
// (a one-sided listing or asymmetric weights) is one class.
func errClass(err error) string {
	msg := err.Error()
	if strings.Contains(msg, "listed by vertex") || strings.Contains(msg, "asymmetric weights") {
		return "symmetry"
	}
	return msg
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

// TestHugeNeighborAllocatesLittle: a row naming neighbor 2^24 of a
// 2^24-vertex header, with nothing behind it, is rejected as truncated
// having allocated for the bytes seen, not for the neighbor id: the
// reader's per-row marker spans the rows the input can hold.
func TestHugeNeighborAllocatesLittle(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"16777216 1\n16777216\n", "gio: vertex 2: unexpected EOF"},
		{"16777216 1\n16777216 16777216\n", "gio: vertex 1: duplicate neighbor 16777216"},
		{"16777216 1 001\n16777216 5 9 1\n", "gio: vertex 2: unexpected EOF"},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.in, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%q: rejecting a %d-byte input allocated %d bytes, want < 1 MiB",
				tc.in, len(tc.in), got)
		}
	}
}

// TestReadLineLimit: Read refuses a line of 2^24 bytes or more, as the
// bufio.Scanner of the reference reader does, and accepts one shorter.
func TestReadLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB inputs")
	}
	pad := func(n int) string { return strings.Repeat(" ", n) }
	for _, in := range []string{
		"2 1\n2" + pad(maxLine-1) + "\n1\n",
		"2 1\n2" + pad(maxLine) + "\n1\n",
		"2 1\n2\n1" + pad(maxLine-1),
		"2 1\n2\n1" + pad(maxLine),
		"% " + pad(maxLine) + "\n0 0\n",
	} {
		_, err := Read(strings.NewReader(in))
		_, werr := readReference(strings.NewReader(in))
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%d-byte input: Read error %v, reference error %v", len(in), err, werr)
		}
	}
}

// TestReadErrorStandsInForEOF: a reader that fails part way is read as
// far as it got, as the reference reader scans it: the error is reported
// where more input was needed, and not at all when every row came first.
func TestReadErrorStandsInForEOF(t *testing.T) {
	boom := errors.New("boom")
	for _, in := range []string{"3 2\n2\n1 3", "3 2\n2\n1 3\n2\n", "3 2\n2\n1 3\n2", "", "3 2"} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(in), iotest.ErrReader(boom)) }
		_, err := Read(r())
		_, werr := readReference(r())
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("%q then an error: Read error %v, reference error %v", in, err, werr)
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
