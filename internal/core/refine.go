package core

import (
	"fmt"
	"sort"

	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
	"gpmetis/internal/obs"
)

// projectKernel transfers the coarse partition onto the finer graph on the
// GPU (Section III.C projection): the fine vertices are divided among the
// threads and each thread reads its vertices' coarse labels through the
// saved cmap array.
func projectKernel(d *gpu.Device, lvl gpuLevel, coarsePart []int, o Options, partArr, cpartArr gpu.Array) []int {
	n := lvl.fine.g.NumVertices()
	T := threadsFor(n, o.MaxThreads)
	part := make([]int, n)
	d.Launch("uncoarsen.project", T, func(c *gpu.Ctx) {
		forOwned(o.Distribution, n, T, c, func(v int) {
			c.Load(lvl.cmapArr, v)
			c.Load(cpartArr, lvl.cmap[v]) // scattered coarse-label gather
			part[v] = coarsePart[lvl.cmap[v]]
			c.Store(partArr, v)
			c.Op(1)
		})
	})
	return part
}

// moveReq is one thread's request to migrate a boundary vertex, as placed
// into a partition's buffer (Section III.C: "a request contains the source
// partition's vertex labels and potential gain").
type moveReq struct {
	v    int
	from int
	gain int
	vw   int
}

// refineResult summarizes one level's refinement for the tracer and the
// metrics registry.
type refineResult struct {
	// moves counts committed migrations; rejected counts requests the
	// explore kernels dropped (stale source or balance bound).
	moves, rejected int
	// boundary is the largest per-iteration boundary-vertex count seen
	// by the scan kernels.
	boundary int
	// passes is how many refinement passes ran before convergence.
	passes int
}

// refineKernels runs GP-metis's lock-free refinement on one graph level:
// up to RefineIters passes, each with two direction-constrained iterations
// (moves only toward higher partition ids, then only lower). Each
// iteration launches a scan kernel in which every thread examines its
// boundary vertices, picks the best balance-feasible destination, and
// appends a request to that partition's buffer by atomically bumping the
// buffer's counter; then an explore kernel with one thread per partition
// sorts its buffer by gain and commits the moves the balance bound allows.
func refineKernels(d *gpu.Device, dg devGraph, part []int, k int, o Options, partArr gpu.Array) (refineResult, error) {
	g := dg.g
	n := g.NumVertices()
	pw := graph.PartWeights(g, part, k)
	totalW := 0
	for _, w := range pw {
		totalW += w
	}
	maxPW := int(o.UBFactor * float64(totalW) / float64(k))
	if maxPW < 1 {
		maxPW = 1
	}

	// Per-partition buffers and their atomic counters live in device
	// memory. The buffers are sized for the worst case (every vertex
	// requesting the same destination is impossible, but per-iteration
	// totals are bounded by n).
	var res refineResult
	counterArr, err := d.Malloc(k, 4)
	if err != nil {
		return res, fmt.Errorf("core: refine counters: %w", err)
	}
	defer d.Free(counterArr)
	bufArr, err := d.Malloc(n, 16)
	if err != nil {
		return res, fmt.Errorf("core: refine buffers: %w", err)
	}
	defer d.Free(bufArr)

	T := threadsFor(n, o.MaxThreads)
	conn := make([]int, k)
	var touched []int
	sink := d.TraceSink()
	// Every scan of the level reads the same labels, CSR entries and
	// neighbor labels; only a request's atomic and store depend on the
	// labels' values. The first scan records those fixed accesses' charges
	// and the others replay them.
	scanPrint := gpu.NewFootprint(2)

	for pass := 0; pass < o.RefineIters; pass++ {
		committed := 0
		requested := 0
		boundarySize := 0
		passSpan := sink.Begin("refine.pass", d.Now(), obs.Int("pass", int64(pass)))
		for dir := 0; dir < 2; dir++ {
			buffers := make([][]moveReq, k)
			slots := 0
			dirBoundary := 0

			d.LaunchFootprint(fmt.Sprintf("refine.scan.d%d", dir), T, scanPrint, func(c *gpu.Ctx) {
				forOwned(o.Distribution, n, T, c, func(v int) {
					c.LoadFixed(partArr, v)
					pv := part[v]
					c.LoadFixed(dg.xadj, v)
					c.LoadFixed(dg.xadj, v+1)
					adj, wgt := g.Neighbors(v)
					c.LoadNFixed(dg.adjncy, g.XAdj[v], len(adj))
					c.LoadNFixed(dg.adjwgt, g.XAdj[v], len(adj))
					boundary := false
					for i, u := range adj {
						c.LoadFixed(partArr, u) // scattered partition reads
						pu := part[u]
						if pu != pv {
							boundary = true
						}
						if conn[pu] == 0 {
							touched = append(touched, pu)
						}
						conn[pu] += wgt[i]
						c.Op(2)
					}
					if boundary {
						dirBoundary++
						bestP, bestGain := -1, 0
						for _, p := range touched {
							if p == pv {
								continue
							}
							// Direction ordering (Section III.C): moves
							// flow one way per iteration so two neighbors
							// cannot swap across the same boundary.
							if dir == 0 && p < pv || dir == 1 && p > pv {
								continue
							}
							if pw[p]+g.VWgt[v] > maxPW {
								continue
							}
							if gain := conn[p] - conn[pv]; gain > bestGain {
								bestP, bestGain = p, gain
							}
							c.Op(3)
						}
						if bestP != -1 && bestGain > 0 {
							// Atomically claim a buffer slot, then write
							// the request into it.
							c.Atomic(counterArr, bestP)
							c.Store(bufArr, slots)
							buffers[bestP] = append(buffers[bestP], moveReq{v: v, from: pv, gain: bestGain, vw: g.VWgt[v]})
							slots++
						}
					}
					for _, p := range touched {
						conn[p] = 0
					}
					touched = touched[:0]
				})
			})
			requested += slots
			if dirBoundary > boundarySize {
				boundarySize = dirBoundary
			}

			// Explore kernel: one thread per partition drains its buffer.
			// With k threads on thousands of cores this launch is
			// deliberately narrow — exactly the underutilized phase the
			// paper describes — and the simulator's critical-path floor
			// prices it accordingly.
			d.Launch(fmt.Sprintf("refine.explore.d%d", dir), k, func(c *gpu.Ctx) {
				p := c.TID()
				buf := buffers[p]
				if len(buf) == 0 {
					c.Load(counterArr, p)
					return
				}
				c.Load(counterArr, p)
				sort.Slice(buf, func(i, j int) bool {
					if buf[i].gain != buf[j].gain {
						return buf[i].gain > buf[j].gain
					}
					return buf[i].v < buf[j].v
				})
				if m := len(buf); m > 1 {
					logm := 0
					for x := m; x > 1; x >>= 1 {
						logm++
					}
					c.Op(2 * m * logm)
				}
				for _, req := range buf {
					c.LoadN(bufArr, 0, 4) // read the 16-byte request
					if part[req.v] != req.from {
						continue
					}
					// Balance check: "accepts the moves that do not
					// overweight the partition".
					if pw[p]+req.vw > maxPW {
						continue
					}
					part[req.v] = p
					pw[req.from] -= req.vw
					pw[p] += req.vw
					committed++
					c.Store(partArr, req.v)
					c.Op(4)
				}
			})
		}
		res.passes++
		res.moves += committed
		res.rejected += requested - committed
		if boundarySize > res.boundary {
			res.boundary = boundarySize
		}
		sink.End(passSpan, d.Now(),
			obs.Int("boundary", int64(boundarySize)),
			obs.Int("requests", int64(requested)),
			obs.Int("moves_applied", int64(committed)),
			obs.Int("moves_rejected", int64(requested-committed)))
		if committed == 0 {
			break // "terminated earlier if no move is committed"
		}
	}
	return res, nil
}
