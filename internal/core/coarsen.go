package core

import (
	"fmt"
	"sort"

	"gpmetis/internal/fault"
	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
)

// matchKernels runs the GPU matching step (Section III.A): a lock-free
// heavy-edge matching kernel writing one-sided proposals into the shared
// match array, followed by the conflict-resolution kernel that re-matches
// disagreeing vertices to themselves. Returns the symmetric matching and
// the (conflicts, attempts) counts.
func matchKernels(d *gpu.Device, dg devGraph, o Options, maxVWgt int, matchArr gpu.Array) (match []int, conflicts, attempts int) {
	g := dg.g
	n := g.NumVertices()
	T := threadsFor(n, o.MaxThreads)
	match = make([]int, n)
	for i := range match {
		match[i] = -1
	}

	// All threads of a match iteration run concurrently, so every thread
	// reads the shared vector as it stood when the kernel launched: each
	// unmatched vertex proposes its heaviest still-unmatched neighbor
	// (ties broken by a symmetric per-edge hash), and the resolve kernel
	// keeps only mutual proposals, re-matching the rest to themselves.
	// This snapshot semantics is the deterministic equivalent of the CUDA
	// kernel's data race and produces the conflict rate the resolve
	// kernel exists for; the iteration repeats because each round leaves
	// conflicted vertices unmatched ("an increase in the required number
	// of matching iterations", Section III.A).
	prop := make([]int, n)
	const matchRounds = 4
	for round := 0; round < matchRounds; round++ {
		proposals := 0
		d.Launch(fmt.Sprintf("coarsen.match.r%d", round), T, func(c *gpu.Ctx) {
			forOwned(o.Distribution, n, T, c, func(v int) {
				c.Load(matchArr, v)
				prop[v] = -1
				if match[v] != -1 {
					return
				}
				c.Load(dg.xadj, v)
				c.Load(dg.xadj, v+1)
				adj, wgt := g.Neighbors(v)
				c.LoadN(dg.adjncy, g.XAdj[v], len(adj))
				c.LoadN(dg.adjwgt, g.XAdj[v], len(adj))
				best, bestW, bestH := -1, -1, uint64(0)
				for i, u := range adj {
					c.Load(matchArr, u) // scattered read of the shared vector
					if match[u] != -1 {
						continue
					}
					if maxVWgt > 0 && g.VWgt[v]+g.VWgt[u] > maxVWgt {
						c.Load(dg.vwgt, u)
						continue
					}
					h := edgeHash(v, u)
					if wgt[i] > bestW || (wgt[i] == bestW && h > bestH) {
						best, bestW, bestH = u, wgt[i], h
					}
					c.Op(2)
				}
				if best != -1 {
					prop[v] = best
					attempts++
					proposals++
					c.Store(matchArr, v) // racy one-sided write
				}
			})
		})
		if proposals == 0 {
			break
		}
		d.Launch(fmt.Sprintf("coarsen.resolve.r%d", round), T, func(c *gpu.Ctx) {
			forOwned(o.Distribution, n, T, c, func(v int) {
				u := prop[v]
				if u == -1 {
					return
				}
				c.Load(matchArr, u)
				c.Op(2)
				if prop[u] == v {
					match[v] = u // the partner commits symmetrically
					c.Store(matchArr, v)
				} else {
					// The paper: "it matches vertex v to itself, so v
					// has another chance in the following coarsening
					// levels" — here, in the next iteration.
					conflicts++
				}
			})
		})
	}
	// Whoever is still unmatched collapses alone.
	d.Launch("coarsen.selfmatch", T, func(c *gpu.Ctx) {
		forOwned(o.Distribution, n, T, c, func(v int) {
			c.Load(matchArr, v)
			if match[v] == -1 {
				match[v] = v
				c.Store(matchArr, v)
			}
			c.Op(1)
		})
	})
	return match, conflicts, attempts
}

// edgeHash is a symmetric deterministic tie-breaker for equal-weight
// edges: both endpoints of an edge compute the same value, so mutual
// heaviest-edge proposals stay possible on unweighted graphs.
func edgeHash(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	x := uint64(u)*0x9E3779B97F4A7C15 ^ uint64(v)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}

// cmapKernels builds the coarse-vertex map with the paper's four-kernel
// pipeline (Figure 4): initialize PV with representative flags, inclusive
// prefix sum (CUB-style device scan), subtract one, and gather the pair
// partners' labels. Returns the cmap and the coarse vertex count.
func cmapKernels(d *gpu.Device, o Options, match []int, matchArr gpu.Array) ([]int, int, error) {
	n := len(match)
	pv := make([]int, n)
	pvArr, err := d.Malloc(n, 4)
	if err != nil {
		return nil, 0, fmt.Errorf("core: cmap PV array: %w", err)
	}
	defer d.Free(pvArr)
	T := threadsFor(n, o.MaxThreads)

	// Kernel 1: PV[v] = 1 when v is its pair's representative.
	d.Launch("cmap.init", T, func(c *gpu.Ctx) {
		forOwned(o.Distribution, n, T, c, func(v int) {
			c.Load(matchArr, v)
			c.Op(1)
			if v <= match[v] {
				pv[v] = 1
			} else {
				pv[v] = 0
			}
			c.Store(pvArr, v)
		})
	})

	// Kernel 2: inclusive prefix sum; the last element is the coarse
	// vertex count.
	coarseN, err := d.InclusiveScan("cmap.scan", pv, pvArr)
	if err != nil {
		return nil, 0, fmt.Errorf("core: cmap scan: %w", err)
	}

	// Kernel 3: subtract one to make the labels zero-based.
	d.Launch("cmap.sub", T, func(c *gpu.Ctx) {
		forOwned(o.Distribution, n, T, c, func(v int) {
			c.Load(pvArr, v)
			pv[v]--
			c.Op(1)
			c.Store(pvArr, v)
		})
	})

	// Kernel 4: non-representatives take their partner's label.
	d.Launch("cmap.final", T, func(c *gpu.Ctx) {
		forOwned(o.Distribution, n, T, c, func(v int) {
			c.Load(matchArr, v)
			if v > match[v] {
				c.Load(pvArr, match[v])
				pv[v] = pv[match[v]]
				c.Store(pvArr, v)
			}
			c.Op(1)
		})
	})
	return pv, coarseN, nil
}

// contractKernels builds the coarse graph (Section III.A contraction):
// each thread first counts the maximum entries its vertices need (temp),
// an exclusive scan carves per-thread ranges in temporary adjacency
// arrays, each thread merges its pairs' lists there (by sort or hash
// table), a second scan over the actual counts (temp2) carves the final
// arrays, and a copy kernel compacts the rows into them.
//
// hashFellBack reports that the hash tables overflowed (or an injected
// overflow fired) and this level fell back to sort-merge contraction —
// same coarse graph, costed at sort-merge rates.
func contractKernels(d *gpu.Device, dg devGraph, o Options, match, cmap []int, coarseN int, matchArr, cmapArr gpu.Array) (cg *graph.Graph, hashFellBack bool, err error) {
	g := dg.g
	n := g.NumVertices()
	T := threadsFor(n, o.MaxThreads)
	// Contraction always uses blocked ownership: the temp/temp2 range
	// carving only yields a monotone coarse xadj when each thread's rows
	// carry consecutive coarse ids, which requires contiguous vertex
	// chunks. (The distribution ablation applies to the other kernels.)
	const dist = Blocked

	tempArr, err := d.Malloc(T, 4)
	if err != nil {
		return nil, false, fmt.Errorf("core: temp array: %w", err)
	}
	defer d.Free(tempArr)
	temp2Arr, err := d.Malloc(T, 4)
	if err != nil {
		return nil, false, fmt.Errorf("core: temp2 array: %w", err)
	}
	defer d.Free(temp2Arr)

	// Kernel: per-thread upper bound on required entries.
	temp := make([]int, T)
	d.Launch("contract.count", T, func(c *gpu.Ctx) {
		need := 0
		forOwned(dist, n, T, c, func(v int) {
			c.Load(matchArr, v)
			u := match[v]
			if u < v {
				return // partner's thread owns the pair
			}
			c.Load(dg.xadj, v)
			c.Load(dg.xadj, v+1)
			need += g.Degree(v)
			if u != v {
				c.Load(dg.xadj, u)
				c.Load(dg.xadj, u+1)
				need += g.Degree(u)
			}
			c.Op(3)
		})
		temp[c.TID()] = need
		c.Store(tempArr, c.TID())
	})

	// Exclusive scan gives each thread its write offset in the temporary
	// arrays; the returned total sizes them.
	total, err := d.ExclusiveScan("contract.scan1", temp, tempArr)
	if err != nil {
		return nil, false, fmt.Errorf("core: contraction offsets: %w", err)
	}
	if total == 0 {
		total = 1 // a fully collapsed level can have no surviving arcs
	}
	tAdjArr, err := d.Malloc(total, 4)
	if err != nil {
		return nil, false, fmt.Errorf("core: temporary adjacency (%d entries): %w", total, err)
	}
	defer d.Free(tAdjArr)
	tWgtArr, err := d.Malloc(total, 4)
	if err != nil {
		return nil, false, fmt.Errorf("core: temporary weights: %w", err)
	}
	defer d.Free(tWgtArr)

	var hashArr gpu.Array
	if o.Merge == HashMerge {
		// The per-thread clustered hash tables live in global memory;
		// their total size matches the temporary adjacency space. This is
		// the allocation that limits the hash strategy to sparse graphs.
		overflow := d.Faults().Check(fault.SiteHashOverflow) != nil
		if !overflow {
			hashArr, err = d.Malloc(2*total, 4)
			if err != nil {
				if !o.Degrade {
					return nil, false, fmt.Errorf("core: hash tables (graph too dense for hash merge; use SortMerge): %w", err)
				}
				overflow = true
			}
		}
		if overflow {
			// Resilience ladder, lowest rung: this level's contraction
			// falls back to sort-merge, which needs no table allocation.
			// Not a degradation of quality — the coarse graph is
			// identical — only of modeled merge speed.
			o.Merge = SortMerge
			hashFellBack = true
		} else {
			defer d.Free(hashArr)
		}
	}

	tAdj := make([]int, total)
	tWgt := make([]int, total)
	cvwgt := make([]int, coarseN)
	cdeg := make([]int, coarseN)
	cvwgtArr, err := d.Malloc(coarseN, 4)
	if err != nil {
		return nil, hashFellBack, fmt.Errorf("core: coarse vertex weights: %w", err)
	}
	defer d.Free(cvwgtArr)
	cdegArr, err := d.Malloc(coarseN, 4)
	if err != nil {
		return nil, hashFellBack, fmt.Errorf("core: coarse degrees: %w", err)
	}
	// cdegArr doubles as the coarse xadj after the final scan; freed below.
	defer d.Free(cdegArr)

	// mark is the host-side stand-in for the per-thread hash tables: a
	// dense coarse-id -> row-slot map holding -1, which mergeRow restores
	// after each row. Threads run one after another, so one array serves
	// the whole launch.
	var mark []int
	if o.Merge == HashMerge {
		mark = make([]int, coarseN)
		for i := range mark {
			mark[i] = -1
		}
	}
	temp2 := make([]int, T)
	d.Launch("contract.merge", T, func(c *gpu.Ctx) {
		pos := temp[c.TID()] // thread's start index from the first scan
		used := 0
		c.Load(tempArr, c.TID())
		forOwned(dist, n, T, c, func(v int) {
			u := match[v]
			if u < v {
				return
			}
			cv := cmap[v]
			start := pos + used
			rowLen, vw := mergeRow(c, dg, o, cmap, mark, v, u, tAdj, tWgt, start, tAdjArr, tWgtArr, hashArr, cmapArr)
			used += rowLen
			cvwgt[cv] = vw
			cdeg[cv] = rowLen
			c.Store(cvwgtArr, cv)
			c.Store(cdegArr, cv)
		})
		temp2[c.TID()] = used
		c.Store(temp2Arr, c.TID())
	})

	// Second scan over the actual counts gives the final write offsets.
	finalTotal, err := d.ExclusiveScan("contract.scan2", temp2, temp2Arr)
	if err != nil {
		return nil, hashFellBack, fmt.Errorf("core: final offsets: %w", err)
	}

	// Coarse xadj from the per-row degrees (one more device scan).
	cxadj := make([]int, coarseN+1)
	scanBuf := make([]int, coarseN)
	copy(scanBuf, cdeg)
	if _, err := d.InclusiveScan("contract.xadjscan", scanBuf, cdegArr); err != nil {
		return nil, hashFellBack, fmt.Errorf("core: coarse xadj scan: %w", err)
	}
	copy(cxadj[1:], scanBuf)

	cadjncy := make([]int, finalTotal)
	cadjwgt := make([]int, finalTotal)
	cAdjArr, err := d.Malloc(finalTotal, 4)
	if err != nil {
		return nil, hashFellBack, fmt.Errorf("core: coarse adjacency: %w", err)
	}
	cWgtArr, err := d.Malloc(finalTotal, 4)
	if err != nil {
		d.Free(cAdjArr)
		return nil, hashFellBack, fmt.Errorf("core: coarse weights: %w", err)
	}

	// Copy kernel: compact each thread's rows from the temporary arrays
	// into the final ones, using temp (source offsets) and temp2
	// (destination offsets).
	d.Launch("contract.copy", T, func(c *gpu.Ctx) {
		src := temp[c.TID()]
		dst := temp2[c.TID()]
		c.Load(tempArr, c.TID())
		c.Load(temp2Arr, c.TID())
		forOwned(dist, n, T, c, func(v int) {
			if match[v] < v {
				return
			}
			cv := cmap[v]
			rl := cdeg[cv]
			c.LoadN(tAdjArr, src, rl)
			c.LoadN(tWgtArr, src, rl)
			copy(cadjncy[dst:dst+rl], tAdj[src:src+rl])
			copy(cadjwgt[dst:dst+rl], tWgt[src:src+rl])
			c.StoreN(cAdjArr, dst, rl)
			c.StoreN(cWgtArr, dst, rl)
			src += rl
			dst += rl
		})
	})
	// The final arrays stay allocated: they are the next level's graph.
	// Ownership passes to the caller through the returned devGraph-able
	// graph; the caller re-registers them via allocGraph accounting, so
	// release the accounting handles here.
	d.Free(cAdjArr)
	d.Free(cWgtArr)

	cg = &graph.Graph{XAdj: cxadj, Adjncy: cadjncy, AdjWgt: cadjwgt, VWgt: cvwgt}
	return cg, hashFellBack, nil
}

// mergeRow merges the adjacency lists of the pair (v,u) into
// tAdj/tWgt[start:], translating neighbors through cmap and dropping the
// internal pair edge. Returns the row length and combined vertex weight.
// The hash merge finds a coarse neighbor's row slot in mark (one entry per
// coarse vertex, -1 when absent) and leaves mark all -1 again on return.
func mergeRow(c *gpu.Ctx, dg devGraph, o Options, cmap, mark []int, v, u int, tAdj, tWgt []int, start int, tAdjArr, tWgtArr, hashArr, cmapArr gpu.Array) (int, int) {
	g := dg.g
	cv := cmap[v]
	members := [2]int{v, u}
	last := 0
	if u != v {
		last = 1
	}
	vw := 0

	switch o.Merge {
	case HashMerge:
		// Clustered hash table with chaining: probe cost is charged per
		// insert against the thread's global-memory table region.
		rowLen := 0
		for mi := 0; mi <= last; mi++ {
			mv := members[mi]
			vw += g.VWgt[mv]
			c.Load(dg.vwgt, mv)
			adj, wgt := g.Neighbors(mv)
			c.Load(dg.xadj, mv)
			c.Load(dg.xadj, mv+1)
			c.LoadN(dg.adjncy, g.XAdj[mv], len(adj))
			c.LoadN(dg.adjwgt, g.XAdj[mv], len(adj))
			for i, w := range adj {
				cu := cmap[w]
				c.Load(cmapArr, w) // scattered cmap gather
				if cu == cv {
					continue
				}
				c.Load(hashArr, start+rowLen) // probe
				if j := mark[cu]; j >= 0 {
					tWgt[start+j] += wgt[i]
					c.Store(tWgtArr, start+j)
				} else {
					mark[cu] = rowLen
					tAdj[start+rowLen] = cu
					tWgt[start+rowLen] = wgt[i]
					c.Store(tAdjArr, start+rowLen)
					c.Store(tWgtArr, start+rowLen)
					c.Store(hashArr, start+rowLen)
					rowLen++
				}
				c.Op(3)
			}
		}
		for _, cu := range tAdj[start : start+rowLen] {
			mark[cu] = -1
		}
		return rowLen, vw

	default: // SortMerge
		// Gather both lists, quicksort by coarse id, then compact
		// duplicates — the paper's first approach.
		type e struct{ id, w int }
		var buf []e
		for mi := 0; mi <= last; mi++ {
			mv := members[mi]
			vw += g.VWgt[mv]
			c.Load(dg.vwgt, mv)
			adj, wgt := g.Neighbors(mv)
			c.Load(dg.xadj, mv)
			c.Load(dg.xadj, mv+1)
			c.LoadN(dg.adjncy, g.XAdj[mv], len(adj))
			c.LoadN(dg.adjwgt, g.XAdj[mv], len(adj))
			for i, w := range adj {
				cu := cmap[w]
				c.Load(cmapArr, w)
				if cu != cv {
					buf = append(buf, e{cu, wgt[i]})
				}
				c.Op(1)
			}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].id < buf[b].id })
		// Charge the quicksort's work. The gathered lists exceed register
		// capacity, so they live in local memory (which is device global
		// memory), and quicksort's data-dependent element accesses do not
		// coalesce across lanes: every compare-and-swap touches memory as
		// an individual transaction.
		if m := len(buf); m > 1 {
			logm := 0
			for x := m; x > 1; x >>= 1 {
				logm++
			}
			c.Op(2 * m * logm)
			for pass := 0; pass < logm; pass++ {
				for j := 0; j < m; j++ {
					c.Load(tAdjArr, start+j)
					c.Store(tAdjArr, start+j)
				}
			}
		}
		rowLen := 0
		for i := 0; i < len(buf); i++ {
			if rowLen > 0 && tAdj[start+rowLen-1] == buf[i].id {
				tWgt[start+rowLen-1] += buf[i].w
				c.Store(tWgtArr, start+rowLen-1)
				continue
			}
			tAdj[start+rowLen] = buf[i].id
			tWgt[start+rowLen] = buf[i].w
			c.Store(tAdjArr, start+rowLen)
			c.Store(tWgtArr, start+rowLen)
			rowLen++
		}
		return rowLen, vw
	}
}
