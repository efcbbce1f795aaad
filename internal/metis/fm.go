package metis

import (
	"gpmetis/internal/graph"
	"gpmetis/internal/perfmodel"
)

// gainBuckets is the classic Fiduccia-Mattheyses bucket structure
// (paper reference [17]): a doubly-linked list per gain value plus a
// max-gain cursor, giving O(1) insert/remove/update and amortized O(1)
// extract-max. Gains are bounded by the maximum weighted degree, so the
// bucket array is dense.
type gainBuckets struct {
	offset  int // gain g lives in head[g+offset]
	head    []int
	next    []int
	prev    []int
	gain    []int
	in      []bool
	maxGain int // current upper bound on the best gain (lazy)
	size    int
}

// init sizes b for n vertices with |gain| <= wmax, reusing b's storage
// when it is large enough. The caller must Reset b before use.
func (b *gainBuckets) init(n, wmax int) {
	b.offset = wmax
	b.head = resize(b.head, 2*wmax+1)
	b.next = resize(b.next, n)
	b.prev = resize(b.prev, n)
	b.gain = resize(b.gain, n)
	b.in = resize(b.in, n)
}

// resize returns s with length n, reusing its storage when the capacity
// suffices. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset empties the buckets, keeping their storage.
func (b *gainBuckets) Reset() {
	for i := range b.head {
		b.head[i] = -1
	}
	clear(b.in)
	b.maxGain = -b.offset - 1
	b.size = 0
}

// Len returns the number of vertices currently in the buckets.
func (b *gainBuckets) Len() int { return b.size }

// Insert adds v with the given gain. v must not already be present.
func (b *gainBuckets) Insert(v, gain int) {
	if b.in[v] {
		panic("metis: gainBuckets.Insert: vertex already present")
	}
	idx := gain + b.offset
	b.gain[v] = gain
	b.in[v] = true
	b.prev[v] = -1
	b.next[v] = b.head[idx]
	if b.head[idx] != -1 {
		b.prev[b.head[idx]] = v
	}
	b.head[idx] = v
	if gain > b.maxGain {
		b.maxGain = gain
	}
	b.size++
}

// Remove deletes v if present.
func (b *gainBuckets) Remove(v int) {
	if !b.in[v] {
		return
	}
	idx := b.gain[v] + b.offset
	if b.prev[v] != -1 {
		b.next[b.prev[v]] = b.next[v]
	} else {
		b.head[idx] = b.next[v]
	}
	if b.next[v] != -1 {
		b.prev[b.next[v]] = b.prev[v]
	}
	b.in[v] = false
	b.size--
}

// Update moves v to a new gain (inserting it if absent).
func (b *gainBuckets) Update(v, gain int) {
	b.Remove(v)
	b.Insert(v, gain)
}

// Contains reports whether v is in the buckets.
func (b *gainBuckets) Contains(v int) bool { return b.in[v] }

// Gain returns v's stored gain (valid only while Contains(v)).
func (b *gainBuckets) Gain(v int) int { return b.gain[v] }

// PeekMax returns the highest-gain vertex, or -1 when empty. The max-gain
// cursor descends lazily, preserving the amortized O(1) bound.
func (b *gainBuckets) PeekMax() int {
	if b.size == 0 {
		return -1
	}
	for b.maxGain+b.offset >= 0 {
		if h := b.head[b.maxGain+b.offset]; h != -1 {
			return h
		}
		b.maxGain--
	}
	return -1
}

// fmMove is one committed move of an FM pass, kept for the rollback.
type fmMove struct{ v, gain int }

// fmWork is the storage of RefineBisectionFM, reused across the calls of
// one recursive bisection.
type fmWork struct {
	side  [2]gainBuckets
	trail []fmMove
}

// RefineBisectionFM improves a 2-way partition with the full
// Fiduccia-Mattheyses pass: every unlocked vertex sits in its side's gain
// buckets; each step moves the best balance-feasible vertex from either
// side, locks it, updates its neighbors' gains in O(deg), and the pass
// rolls back to the best prefix. Compared to RefineBisection's linear
// rescan this is the textbook O(|E|)-per-pass structure.
func RefineBisectionFM(g *graph.Graph, part []int, frac0, ubfactor float64, acct *perfmodel.ThreadCost) {
	var w fmWork
	w.refine(g, part, frac0, ubfactor, acct)
}

func (w *fmWork) refine(g *graph.Graph, part []int, frac0, ubfactor float64, acct *perfmodel.ThreadCost) {
	n := g.NumVertices()
	if n == 0 {
		return
	}
	totalW := g.TotalVertexWeight()
	target0 := frac0 * float64(totalW)
	maxW0 := int(target0 * ubfactor)
	minW0 := int(target0 * (2 - ubfactor))

	wmax := 1
	for v := 0; v < n; v++ {
		_, wgt := g.Neighbors(v)
		s := 0
		for _, w := range wgt {
			s += w
		}
		if s > wmax {
			wmax = s
		}
	}

	w0 := 0
	for v := 0; v < n; v++ {
		if part[v] == 0 {
			w0 += g.VWgt[v]
		}
	}

	const maxPasses = 6
	side := [2]*gainBuckets{&w.side[0], &w.side[1]}
	side[0].init(n, wmax)
	side[1].init(n, wmax)
	// A pass moves each vertex at most once.
	if cap(w.trail) < n {
		w.trail = make([]fmMove, 0, n)
	}
	trail := w.trail
	for pass := 0; pass < maxPasses; pass++ {
		side[0].Reset()
		side[1].Reset()
		for v := 0; v < n; v++ {
			adj, wgt := g.Neighbors(v)
			ed, id := 0, 0
			for i, u := range adj {
				if part[u] == part[v] {
					id += wgt[i]
				} else {
					ed += wgt[i]
				}
			}
			side[part[v]].Insert(v, ed-id)
		}
		if acct != nil {
			acct.Ops += float64(len(g.Adjncy) + 4*n)
			acct.Rand += float64(len(g.Adjncy))
		}

		trail = trail[:0]
		sumGain, bestSum, bestLen := 0, 0, 0
		negRun := 0
		for side[0].Len()+side[1].Len() > 0 {
			// Best balance-feasible move from either side.
			c0, c1 := side[0].PeekMax(), side[1].PeekMax()
			feas0 := c0 != -1 && w0-g.VWgt[c0] >= minW0
			feas1 := c1 != -1 && w0+g.VWgt[c1] <= maxW0
			var v, from int
			switch {
			case feas0 && feas1:
				if side[0].Gain(c0) >= side[1].Gain(c1) {
					v, from = c0, 0
				} else {
					v, from = c1, 1
				}
			case feas0:
				v, from = c0, 0
			case feas1:
				v, from = c1, 1
			default:
				// Neither side can move without breaking balance.
				goto done
			}
			{
				gain := side[from].Gain(v)
				side[from].Remove(v)
				part[v] = 1 - from
				if from == 0 {
					w0 -= g.VWgt[v]
				} else {
					w0 += g.VWgt[v]
				}
				adj, wgt := g.Neighbors(v)
				for i, u := range adj {
					// Unlocked neighbors shift by ±2w. An unlocked
					// vertex sits in its own side's buckets only.
					b := side[part[u]]
					if b.Contains(u) {
						delta := 2 * wgt[i]
						if part[u] == part[v] {
							b.Update(u, b.Gain(u)-delta)
						} else {
							b.Update(u, b.Gain(u)+delta)
						}
					}
				}
				if acct != nil {
					acct.Ops += float64(4 * len(adj))
					acct.Rand += float64(2 * len(adj))
				}
				sumGain += gain
				trail = append(trail, fmMove{v, gain})
				if sumGain > bestSum {
					bestSum, bestLen = sumGain, len(trail)
				}
				if gain < 0 {
					negRun++
					if negRun > 64 {
						goto done // bounded hill climb
					}
				} else {
					negRun = 0
				}
			}
		}
	done:
		// Roll back past the best prefix.
		for i := len(trail) - 1; i >= bestLen; i-- {
			v := trail[i].v
			from := part[v]
			part[v] = 1 - from
			if from == 0 {
				w0 -= g.VWgt[v]
			} else {
				w0 += g.VWgt[v]
			}
		}
		if bestSum <= 0 {
			break
		}
	}
}
