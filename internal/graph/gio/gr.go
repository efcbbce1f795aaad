package gio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpmetis/internal/graph"
)

// ErrVerticesExceedInput rejects a .gr problem line that declares more
// vertices than the input has bytes. Arcs are optional in the format, so
// without this bound a 15-byte "p sp 1048576 0" would build (and
// allocate for) a million isolated vertices; a Metis file meets the
// bound by construction, since it needs a line per vertex.
var ErrVerticesExceedInput = errors.New("gio: problem line declares more vertices than the input has bytes")

// ReadGR parses the DIMACS9 shortest-path challenge ".gr" format, the
// native format of the paper's USA road network input:
//
//	c comment
//	p sp <n> <m>
//	a <u> <v> <w>    (1-indexed directed arc)
//
// Road graphs list both arc directions; ReadGR merges them into one
// undirected edge (keeping the minimum weight when the directions
// disagree) and drops self loops, which is how partitioners consume these
// files. A problem line declaring more vertices than the input has
// bytes is refused with ErrVerticesExceedInput.
func ReadGR(r io.Reader) (*graph.Graph, error) {
	cr := &countingReader{r: r}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	var b *graph.Builder
	n := -1
	type key struct{ u, v int }
	weights := map[key]int{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		switch line[0] {
		case 'p':
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "sp" {
				return nil, fmt.Errorf("gio: malformed problem line %q", line)
			}
			var err error
			n, err = strconv.Atoi(fields[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("gio: bad vertex count in %q", line)
			}
			if n > MaxVertices {
				return nil, fmt.Errorf("gio: vertex count %d exceeds limit %d", n, MaxVertices)
			}
			b = graph.NewBuilder(n)
		case 'a':
			if b == nil {
				return nil, fmt.Errorf("gio: arc before problem line: %q", line)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("gio: malformed arc line %q", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("gio: malformed arc line %q", line)
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("gio: arc endpoint out of range in %q", line)
			}
			if u == v {
				continue // self loops are meaningless for partitioning
			}
			if w < 1 {
				w = 1
			}
			a, c := u-1, v-1
			if a > c {
				a, c = c, a
			}
			k := key{a, c}
			if old, ok := weights[k]; !ok || w < old {
				weights[k] = w
			}
		default:
			return nil, fmt.Errorf("gio: unknown line type %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("gio: missing problem line")
	}
	if n > cr.n {
		return nil, fmt.Errorf("%w (%d vertices, %d bytes)", ErrVerticesExceedInput, n, cr.n)
	}
	for k, w := range weights {
		if err := b.AddEdge(k.u, k.v, w); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += k
	return k, err
}
