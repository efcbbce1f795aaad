// Package gio reads and writes graphs in the Chaco/Metis text format used
// by the DIMACS challenges the paper takes its inputs from, so real
// "ldoor"/"delaunay_n20"/"hugebubbles"/"USA-road" files can be fed to the
// partitioners when available.
//
// Format: the header line is "n m [fmt]" where fmt's last two digits
// enable vertex weights (10) and edge weights (01). Each following
// non-comment line i lists vertex i's neighbors, 1-indexed, each followed
// by its edge weight when enabled; the whole line is preceded by the
// vertex weight when enabled. Lines starting with '%' are comments.
//
// Read validates in one linear pass over the input's bytes. It splits
// each line into tokens as strings.Fields would (ASCII and Unicode white
// space) and appends them straight to CSR arrays, one row per line. A
// per-row marker catches a duplicate neighbor at the token that repeats
// it, and a row is sorted only if it was listed out of order. Once every
// row is in, one cursor per row walks the sorted rows to check that each
// edge is listed from both ends with equal weights. Every array is sized
// by what the input's bytes can hold, never by a header count or a
// neighbor id, so an input that claims a huge graph is rejected having
// allocated for its own size. A line may hold up to 16 MiB - 1 bytes.
package gio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"gpmetis/internal/graph"
)

// MaxVertices and MaxEdges bound the header counts Read and ReadGR
// accept, and with them the graph an accepted input can build. Nothing
// is allocated per declared vertex that the input's lines do not back:
// Read sizes its arrays by the input, ReadGR's builder grows with the
// lines read. Variables (not constants) so tests and fuzzing can lower
// them.
var (
	MaxVertices = 1 << 27
	MaxEdges    = 1 << 29
)

// Read parses a Chaco/Metis format graph. Malformed input — out-of-range
// or duplicate neighbors, self loops, one-sided arc listings, asymmetric
// edge weights, or a header edge count that disagrees with the file —
// yields an error, never a panic.
//
// Read takes the whole input into memory, then parses it in one linear
// pass (see the package doc). A read error stands in for the end of the
// input: the lines before it are parsed, and the error is reported where
// more input was needed.
func Read(r io.Reader) (*graph.Graph, error) {
	data, err := readAll(r)
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	p := &parser{data: data, end: err}
	return p.parse()
}

// readAll reads r to its end. A reader that knows its length (a
// strings.Reader, bytes.Reader or bytes.Buffer) is read into one buffer
// of that size, so the input is copied once.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(max(l.Len(), 0) + bytes.MinRead) // room for the read that sees EOF
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// maxLine is the longest line Read accepts, in bytes before the newline:
// the line limit of the bufio.Scanner that ReadGR reads with.
const maxLine = 1<<24 - 1

// parser is one Read's state: the input and a cursor into it.
type parser struct {
	data []byte
	pos  int
	// end is the error met where the input runs out:
	// io.ErrUnexpectedEOF, or the reader's error.
	end error
}

// line returns the next line that is not a comment, without its newline.
// A line of only white space is returned: it is an isolated vertex.
func (p *parser) line() ([]byte, error) {
	for p.pos < len(p.data) {
		rest := p.data[p.pos:]
		l := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			l = rest[:i]
			p.pos += i + 1
		} else {
			p.pos = len(p.data)
		}
		if len(l) > maxLine {
			return nil, bufio.ErrTooLong
		}
		if f := (tokens{line: l}); f.skipSpace() && l[f.i] == '%' {
			continue
		}
		return l, nil
	}
	return nil, p.end
}

func (p *parser) parse() (*graph.Graph, error) {
	hl, err := p.line()
	if err != nil {
		return nil, fmt.Errorf("gio: missing header: %w", err)
	}
	line := strings.TrimSpace(string(hl))
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("gio: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("gio: bad vertex count %q", fields[0])
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("gio: vertex count %d exceeds limit %d", n, MaxVertices)
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("gio: bad edge count %q", fields[1])
	}
	if m > MaxEdges {
		return nil, fmt.Errorf("gio: edge count %d exceeds limit %d", m, MaxEdges)
	}
	hasVWgt, hasEWgt := false, false
	if len(fields) >= 3 {
		f := fields[2]
		if len(f) > 3 {
			return nil, fmt.Errorf("gio: unsupported fmt field %q", f)
		}
		for len(f) < 3 {
			f = "0" + f
		}
		if f[0] == '1' {
			return nil, fmt.Errorf("gio: vertex sizes (fmt %q) are not supported", fields[2])
		}
		hasVWgt = f[1] == '1'
		hasEWgt = f[2] == '1'
	}
	if len(fields) == 4 {
		ncon, err := strconv.Atoi(fields[3])
		if err != nil || ncon > 1 {
			return nil, fmt.Errorf("gio: multi-constraint graphs (ncon=%s) are not supported", fields[3])
		}
	}

	// Size every array by what the input can hold, never by the header
	// alone: a row needs a line, and an arc a token of at least one byte
	// plus a separator. An honest header sizes the arc arrays exactly.
	rest := p.data[p.pos:]
	rows := min(n, bytes.Count(rest, []byte{'\n'})+1)
	arcs := min(2*m, (len(rest)+1)/2)
	xadj := make([]int, 1, rows+1)
	adj := make([]int, 0, arcs)
	wgt := make([]int, 0, arcs)
	var vwgt []int
	if hasVWgt {
		vwgt = make([]int, 0, rows)
	}
	// mark[u] == v+1 while row v is read and lists u. A neighbor at or
	// past rows can have no line of its own, so the input is short and
	// fails; until then such neighbors are tracked in far.
	mark := make([]int, rows)
	var far map[int]int
	var rs *rowSort

	for v := 0; v < n; v++ {
		line, err := p.line()
		if err != nil {
			return nil, fmt.Errorf("gio: vertex %d: %w", v+1, err)
		}
		f := tokens{line: line}
		if hasVWgt {
			tok := f.next()
			if tok == nil {
				return nil, fmt.Errorf("gio: vertex %d: missing vertex weight", v+1)
			}
			w, ok := atoi(tok)
			if !ok {
				return nil, fmt.Errorf("gio: vertex %d: bad vertex weight %q", v+1, tok)
			}
			if w <= 0 {
				return nil, fmt.Errorf("gio: vertex %d: graph: SetVertexWeight: weight %d must be positive", v+1, w)
			}
			vwgt = append(vwgt, w)
		}
		start, sorted := len(adj), true
		for tok := f.next(); tok != nil; tok = f.next() {
			u, ok := atoi(tok)
			if !ok {
				return nil, fmt.Errorf("gio: vertex %d: bad neighbor %q", v+1, tok)
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("gio: vertex %d: neighbor %d out of [1,%d]", v+1, u, n)
			}
			w := 1
			if hasEWgt {
				wt := f.next()
				if wt == nil {
					return nil, fmt.Errorf("gio: vertex %d: missing weight for neighbor %d", v+1, u)
				}
				if w, ok = atoi(wt); !ok {
					return nil, fmt.Errorf("gio: vertex %d: bad edge weight %q", v+1, wt)
				}
			}
			u--
			if u == v {
				return nil, fmt.Errorf("gio: vertex %d: self loop", v+1)
			}
			if u < rows {
				if mark[u] == v+1 {
					return nil, fmt.Errorf("gio: vertex %d: duplicate neighbor %d", v+1, u+1)
				}
				mark[u] = v + 1
			} else {
				if far == nil {
					far = map[int]int{}
				}
				if far[u] == v+1 {
					return nil, fmt.Errorf("gio: vertex %d: duplicate neighbor %d", v+1, u+1)
				}
				far[u] = v + 1
			}
			// The lower endpoint's listing is the one that must carry a
			// valid weight; symmetry then holds the other to it.
			if u > v && w <= 0 {
				return nil, fmt.Errorf("gio: vertex %d: graph: AddEdge(%d,%d): weight %d must be positive", v+1, v, u, w)
			}
			if len(adj) > start && u < adj[len(adj)-1] {
				sorted = false
			}
			adj = append(adj, u)
			wgt = append(wgt, w)
		}
		if !sorted {
			if rs == nil {
				rs = &rowSort{}
			}
			rs.adj, rs.wgt = adj[start:], wgt[start:]
			sort.Sort(rs)
		}
		xadj = append(xadj, len(adj))
	}

	// All n rows were read, so rows == n, and mark becomes one cursor
	// per row: cur[u] is the first entry of row u that no row before the
	// current one has matched. Rows are sorted, so the rows below u
	// match its entries in order.
	cur := mark
	for u := range cur {
		cur[u] = xadj[u]
	}
	for v := 0; v < n; v++ {
		end := xadj[v+1]
		// Every lower vertex v lists has, by now, matched its entry.
		if c := cur[v]; c < end && adj[c] < v {
			return nil, oneSided(v, adj[c])
		}
		for i := cur[v]; i < end; i++ {
			u := adj[i]
			c := cur[u]
			switch {
			case c < xadj[u+1] && adj[c] < v:
				return nil, oneSided(u, adj[c])
			case c == xadj[u+1] || adj[c] != v:
				return nil, oneSided(v, u)
			case wgt[c] != wgt[i]:
				return nil, fmt.Errorf("gio: asymmetric weights for edge %d-%d: %d and %d",
					v+1, u+1, wgt[i], wgt[c])
			}
			cur[u]++
		}
	}
	if len(adj)/2 != m {
		return nil, fmt.Errorf("gio: header declares %d edges, file has %d", m, len(adj)/2)
	}
	if !hasVWgt {
		vwgt = make([]int, n)
		for v := range vwgt {
			vwgt[v] = 1
		}
	}
	return &graph.Graph{XAdj: xadj, Adjncy: adj, AdjWgt: wgt, VWgt: vwgt}, nil
}

// oneSided reports an arc v lists whose reverse u does not.
func oneSided(v, u int) error {
	return fmt.Errorf("gio: edge %d-%d listed by vertex %d but not by vertex %d", v+1, u+1, v+1, u+1)
}

// rowSort sorts one row's neighbors with their weights.
type rowSort struct{ adj, wgt []int }

func (r *rowSort) Len() int           { return len(r.adj) }
func (r *rowSort) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowSort) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

// tokens splits a line at white space, as strings.Fields does: ASCII
// white space and the Unicode space runes.
type tokens struct {
	line []byte
	i    int
}

// skipSpace advances past white space and reports whether a token
// follows.
func (f *tokens) skipSpace() bool {
	for f.i < len(f.line) {
		c := f.line[f.i]
		if c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return true
			}
			f.i++
			continue
		}
		r, w := utf8.DecodeRune(f.line[f.i:])
		if !unicode.IsSpace(r) {
			return true
		}
		f.i += w
	}
	return false
}

// next returns the next token, or nil at the end of the line.
func (f *tokens) next() []byte {
	if !f.skipSpace() {
		return nil
	}
	start := f.i
	for f.i < len(f.line) {
		c := f.line[f.i]
		if c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			f.i++
			continue
		}
		// Invalid UTF-8 decodes as a one-byte rune that is not space.
		r, w := utf8.DecodeRune(f.line[f.i:])
		if unicode.IsSpace(r) {
			break
		}
		f.i += w
	}
	return f.line[start:f.i]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// atoi parses a decimal integer with an optional sign, accepting what
// strconv.Atoi accepts on a 64-bit int without allocating.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	const limit = uint64(1) << 63 // |math.MinInt64|
	var x uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 || x > limit/10 {
			return 0, false
		}
		x = x*10 + uint64(d)
		if x > limit {
			return 0, false
		}
	}
	if neg {
		return int(-x), true // -limit wraps to math.MinInt64
	}
	if x == limit {
		return 0, false
	}
	return int(x), true
}

// Write serializes g in Chaco/Metis format. Vertex weights are written
// only when some weight differs from 1; likewise edge weights.
func Write(w io.Writer, g *graph.Graph) error {
	hasVWgt, hasEWgt := false, false
	for _, x := range g.VWgt {
		if x != 1 {
			hasVWgt = true
			break
		}
	}
	for _, x := range g.AdjWgt {
		if x != 1 {
			hasEWgt = true
			break
		}
	}
	bw := bufio.NewWriter(w)
	fmtField := ""
	switch {
	case hasVWgt && hasEWgt:
		fmtField = " 011"
	case hasVWgt:
		fmtField = " 010"
	case hasEWgt:
		fmtField = " 001"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.NumVertices(), g.NumEdges(), fmtField); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		first := true
		if hasVWgt {
			if _, err := fmt.Fprintf(bw, "%d", g.VWgt[v]); err != nil {
				return err
			}
			first = false
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if !first {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(bw, "%d", u+1); err != nil {
				return err
			}
			if hasEWgt {
				if _, err := fmt.Fprintf(bw, " %d", wgt[i]); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
