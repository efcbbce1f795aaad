package core

import (
	"fmt"

	"gpmetis/internal/fault"
	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
	"gpmetis/internal/metis"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// PartitionMulti is the paper's future work (Section V): "the partitioning
// algorithm should be extended to multiple GPUs for handling even larger
// graphs". It partitions a graph that does not fit in one device's global
// memory by sharding the vertices over `devices` GPUs:
//
//   - each device runs the matching kernel over its shard against a
//     host-assembled snapshot of the shared match vector; the host
//     resolves conflicts and redistributes the result (charged as PCIe
//     traffic both ways);
//   - contraction runs per shard (rows whose pair representative the
//     shard owns); the host assembles and re-shards the coarse graph;
//   - once the coarse graph fits on a single device, the standard
//     single-GPU GP-metis pipeline takes over;
//   - the multi-GPU levels are projected back shard by shard, with
//     host-committed buffered refinement.
//
// Devices run concurrently, so each multi-GPU phase costs the maximum of
// the per-device kernel times plus the host exchange.
func PartitionMulti(g *graph.Graph, k, devices int, o Options, m *perfmodel.Machine) (*Result, error) {
	if err := o.validate(g, k); err != nil {
		return nil, err
	}
	if devices < 1 {
		return nil, fmt.Errorf("core: PartitionMulti needs at least 1 device, got %d", devices)
	}
	if devices == 1 {
		return Partition(g, k, o, m)
	}
	// Checkpoint/resume covers the single-GPU pipeline only; the embedded
	// single-GPU stage below runs on a derived sub-graph whose digest
	// would never match a caller-supplied snapshot.
	o.Checkpoint, o.Resume = nil, nil

	res := &Result{}
	// Per-device simulators with private timelines; phase maxima go to
	// the master timeline.
	devs := make([]*gpu.Device, devices)
	tls := make([]*perfmodel.Timeline, devices)
	for d := range devs {
		tls[d] = &perfmodel.Timeline{}
		devs[d] = gpu.NewDevice(m, tls[d])
	}

	// Tracing: the master timeline reconciles with the trace through the
	// sink; each device additionally gets an auxiliary per-device track
	// whose kernel spans show the concurrent activity the master's
	// per-phase maxima summarize.
	var root *obs.Span
	var sink *obs.TimelineSink
	devRoots := make([]*obs.Span, devices)
	met := o.Tracer.Metrics()
	if o.Tracer.Enabled() {
		root = o.Tracer.Root("gpmetis.multi", "host", 0,
			obs.Int("vertices", int64(g.NumVertices())),
			obs.Int("edges", int64(g.NumEdges())),
			obs.Int("k", int64(k)),
			obs.Int("devices", int64(devices)))
		sink = obs.NewTimelineSink(root, 0)
		res.Timeline.Observe(sink)
		for d := range devs {
			devRoots[d] = root.ChildTrack(fmt.Sprintf("gpu%d", d), "device", 0,
				obs.Int("device", int64(d))).MarkAux()
			devs[d].SetTraceSink(obs.NewTimelineSink(devRoots[d], 0))
		}
	}
	// live holds the original indices of the devices still in service;
	// injected device failures (fault.SiteDevice) remove entries. The
	// original devs/tls/devRoots stay around for final stats — work a
	// device did before dying is real and is reported.
	live := make([]int, devices)
	for d := range live {
		live[d] = d
	}
	marks := make([]float64, devices)
	phase := func(name string) {
		var maxDelta float64
		for _, d := range live {
			delta := tls[d].Total() - marks[d]
			marks[d] = tls[d].Total()
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		res.Timeline.Append(name, perfmodel.LocGPU, maxDelta)
	}
	event := func(site fault.Site, action string, lvl int, detail string) {
		now := res.Timeline.Total()
		res.Events = append(res.Events, FaultEvent{
			Site: site, Action: action, Level: lvl, Seconds: now, Detail: detail,
		})
		met.Add("fault.events", 1)
		met.Add("fault."+action, 1)
		if sink != nil {
			sink.Leaf("fault."+action, now, 0,
				obs.Str("site", string(site)),
				obs.Int("level", int64(lvl)),
				obs.Str("detail", detail))
		}
	}

	// A shard must fit on its device; the whole point is that the full
	// graph need not.
	shardBytes := g.Bytes()/int64(devices) + 1
	if shardBytes > m.GPU.GlobalMemBytes {
		return nil, fmt.Errorf("core: even 1/%d shards (%d bytes) exceed device memory: %w",
			devices, shardBytes, ErrGraphTooLarge)
	}

	type mgLevel struct {
		fine *graph.Graph
		cmap []int
	}
	var levels []mgLevel
	cur := g
	maxVWgt := metis.MaxVertexWeight(g, k, o.CoarsenTo)
	// Per-device accounting arrays for the shard-resident data the
	// kernels touch (sized for the finest level, reused below it).
	shards := make([]shardArrs, devices)
	for d := range devs {
		a, err := newShardArrs(devs[d], g, devices)
		if err != nil {
			return nil, fmt.Errorf("core: shard arrays on device %d: %w: %w", d, ErrGraphTooLarge, err)
		}
		shards[d] = a
	}
	// Upload the initial shards.
	for d := range devs {
		devs[d].ToDevice("mg.h2d.shard", shardBytes)
	}
	phase("mg.upload")

	// lose evaluates the device-failure site once per live device. On a
	// hit the device drops out and its shard of gr is redistributed over
	// the survivors: their accounting arrays are re-allocated for the
	// wider span and the re-upload is charged as PCIe traffic. Losing the
	// last device, or survivors that cannot hold the wider shards, fails
	// the run with a typed capacity error.
	lose := func(gr *graph.Graph, lvl int) error {
		if o.Faults == nil {
			return nil
		}
		for li := 0; li < len(live); {
			id := live[li]
			fe := o.Faults.Check(fault.SiteDevice)
			if fe == nil {
				li++
				continue
			}
			if len(live) == 1 {
				return fmt.Errorf("core: device %d lost with no survivors: %w", id, fe)
			}
			live = append(live[:li], live[li+1:]...)
			event(fault.SiteDevice, "redistribute", lvl, fmt.Sprintf(
				"device %d lost; resharding %d vertices over %d survivors",
				id, gr.NumVertices(), len(live)))
			for _, sd := range live {
				shards[sd].free(devs[sd])
			}
			span := gr.Bytes()/int64(len(live)) + 1
			for _, sd := range live {
				a, aerr := newShardArrs(devs[sd], gr, len(live))
				if aerr != nil {
					return fmt.Errorf("core: 1/%d shards after losing device %d: %w: %w",
						len(live), id, ErrGraphTooLarge, aerr)
				}
				shards[sd] = a
				devs[sd].ToDevice("mg.h2d.redistribute", span)
			}
			phase("mg.redistribute")
		}
		return nil
	}
	// fleet compacts the per-device state to the survivors; the multi-GPU
	// helpers shard work as d*n/len(devs), so a shorter slice is all the
	// redistribution they need to see.
	fleet := func() ([]*gpu.Device, []shardArrs) {
		dl := make([]*gpu.Device, len(live))
		sl := make([]shardArrs, len(live))
		for i, d := range live {
			dl[i], sl[i] = devs[d], shards[d]
		}
		return dl, sl
	}

	singleFits := func(gr *graph.Graph) bool {
		// The single-GPU pipeline keeps every level's arrays alive for
		// projection (a ~4x geometric chain) plus the contraction's
		// temporary arrays (~1.5x transiently); 6x is a safe envelope.
		return 6*gr.Bytes() < m.GPU.GlobalMemBytes
	}

	target := o.CoarsenTo * k
	for !singleFits(cur) {
		if err := lose(cur, len(levels)); err != nil {
			return nil, err
		}
		dl, sl := fleet()
		n := cur.NumVertices()
		lvlSpan := sink.Begin(obs.SpanCoarsenLevel, res.Timeline.Total(),
			obs.Str("side", "multigpu"),
			obs.Int("level", int64(len(levels))),
			obs.Int("vertices", int64(n)),
			obs.Int("edges", int64(cur.NumEdges())))
		// Memory pressure beats the usual coarsening threshold: past the
		// CoarsenTo*k target the vertex-weight cap is lifted so the graph
		// can keep shrinking until it fits a single device.
		cap := maxVWgt
		if n <= target {
			cap = 0
		}
		match, conflicts, attempts := multiMatch(dl, sl, cur, o, cap, len(live))
		res.MatchConflicts += conflicts
		res.MatchAttempts += attempts
		met.Add("match.conflicts", float64(conflicts))
		met.Add("match.attempts", float64(attempts))
		phase("mg.match")
		// Host resolves and redistributes the match vector.
		for _, d := range live {
			devs[d].ToHost("mg.d2h.match", int64(4*n/len(live)))
			devs[d].ToDevice("mg.h2d.match", int64(4*n/len(live)))
		}
		phase("mg.exchange")

		var acct perfmodel.ThreadCost
		cmap, coarseN := metis.BuildCMap(match, &acct)
		res.Timeline.Append("mg.cmap.host", perfmodel.LocCPU, m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))
		if float64(coarseN) > 0.95*float64(n) {
			return nil, fmt.Errorf("core: multi-GPU coarsening stalled at %d vertices (%d bytes) before fitting one device", n, cur.Bytes())
		}
		cg := multiContract(dl, sl, cur, o, match, cmap, coarseN, len(live))
		phase("mg.contract")
		// Host assembles and re-shards the coarse graph.
		for _, d := range live {
			devs[d].ToHost("mg.d2h.coarse", cg.Bytes()/int64(len(live)))
			devs[d].ToDevice("mg.h2d.coarse", cg.Bytes()/int64(len(live)))
		}
		phase("mg.reshard")
		if o.Verify {
			if verr := graph.VerifyCoarsening(cur, cg, cmap); verr != nil {
				return nil, fmt.Errorf("core: multi-GPU coarsen level %d: %w", len(levels), verr)
			}
		}
		var rate float64
		if attempts > 0 {
			rate = float64(conflicts) / float64(attempts)
		}
		sink.End(lvlSpan, res.Timeline.Total(),
			obs.Int("coarse_vertices", int64(coarseN)),
			obs.Float("ratio", float64(coarseN)/float64(n)),
			obs.Int("conflicts", int64(conflicts)),
			obs.Int("attempts", int64(attempts)),
			obs.Float("conflict_rate", rate))
		levels = append(levels, mgLevel{fine: cur, cmap: cmap})
		cur = cg
	}
	// Fold per-device timelines into the result for reference (totals
	// only; the phase maxima already carried the critical path).
	res.GPULevels = len(levels)

	// --- Single-GPU pipeline from here down ---
	subOff := res.Timeline.Total()
	sub, err := partitionRun(cur, k, o, m, root, subOff)
	if err != nil {
		return nil, fmt.Errorf("core: single-GPU stage: %w", err)
	}
	res.Timeline.Merge(&sub.Timeline)
	res.Degraded = sub.Degraded
	res.DegradedReason = sub.DegradedReason
	for _, e := range sub.Events {
		e.Seconds += subOff
		res.Events = append(res.Events, e)
	}
	res.CPULevels = sub.CPULevels
	res.MatchConflicts += sub.MatchConflicts
	res.MatchAttempts += sub.MatchAttempts
	// Only the single-GPU tail is profiled (see Options.Profile); its
	// report's timeline total covers the tail alone, not the fleet stage.
	res.Profile = sub.Profile
	part := sub.Part

	// --- Multi-GPU projection + refinement back to the input ---
	for i := len(levels) - 1; i >= 0; i-- {
		lvl := levels[i]
		if err := lose(lvl.fine, i); err != nil {
			return nil, err
		}
		dl, sl := fleet()
		n := lvl.fine.NumVertices()
		lvlSpan := sink.Begin(obs.SpanUncoarsenLevel, res.Timeline.Total(),
			obs.Str("side", "multigpu"),
			obs.Int("level", int64(i)),
			obs.Int("vertices", int64(n)),
			obs.Int("edges", int64(lvl.fine.NumEdges())))
		fine := make([]int, n)
		for li := range dl {
			lo, hi := li*n/len(dl), (li+1)*n/len(dl)
			sa := sl[li]
			dl[li].Launch("mg.project", threadsFor(hi-lo, o.MaxThreads), func(c *gpu.Ctx) {
				T := threadsFor(hi-lo, o.MaxThreads)
				j := 0
				for v := lo + c.TID(); v < hi; v += T {
					c.Converge(j)
					j++
					c.Load(sa.cmap, (v-lo)%sa.span)
					c.Load(sa.part, lvl.cmap[v]%sa.span) // scattered gather
					fine[v] = part[lvl.cmap[v]]
					c.Store(sa.part, (v-lo)%sa.span)
					c.Op(2)
				}
			})
		}
		phase("mg.project")
		if o.Verify {
			coarseG := cur
			if i+1 < len(levels) {
				coarseG = levels[i+1].fine
			}
			if verr := graph.VerifyProjection(lvl.fine, coarseG, lvl.cmap, fine, part); verr != nil {
				return nil, fmt.Errorf("core: multi-GPU uncoarsen level %d: %w", i, verr)
			}
		}
		part = fine
		moves, rejected := multiRefine(dl, sl, lvl.fine, part, k, o, m, res, len(dl), sink)
		phase("mg.refine")
		met.Add("refine.moves", float64(moves))
		met.Add("refine.rejected", float64(rejected))
		sink.End(lvlSpan, res.Timeline.Total(),
			obs.Int("moves", int64(moves)),
			obs.Int("rejected", int64(rejected)))
	}
	for _, d := range live {
		devs[d].ToHost("mg.d2h.part", int64(4*g.NumVertices()/len(live)))
		shards[d].free(devs[d])
	}
	phase("mg.download")

	var acct perfmodel.ThreadCost
	metis.BalancePartition(g, part, k, o.UBFactor, &acct)
	res.Timeline.Append("balance", perfmodel.LocCPU, m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))

	res.Part = part
	res.EdgeCut = graph.EdgeCut(g, part)
	for d := range devs {
		res.KernelStats = res.KernelStats.Add(devs[d].Stats())
		devRoots[d].EndAt(tls[d].Total())
	}
	// The shard devices' traffic; the single-GPU stage already registered
	// its own bytes inside partitionRun.
	met.Add("pcie.bytes_to_device", float64(res.KernelStats.BytesToDevice))
	met.Add("pcie.bytes_to_host", float64(res.KernelStats.BytesToHost))
	res.KernelStats = res.KernelStats.Add(sub.KernelStats)
	if o.Faults != nil {
		for _, s := range fault.Sites {
			if n := o.Faults.Fires(s); n > 0 {
				met.Set("fault.fires."+string(s), float64(n))
			}
		}
	}
	if root != nil {
		root.Set(
			obs.Int("edge_cut", int64(res.EdgeCut)),
			obs.Float("modeled_seconds", res.ModeledSeconds()),
			obs.Float("conflict_rate", res.MatchConflictRate()))
		if res.Degraded {
			root.Set(
				obs.Bool("degraded", true),
				obs.Str("degraded_reason", res.DegradedReason))
		}
		if len(res.Events) > 0 {
			root.Set(obs.Int("fault_events", int64(len(res.Events))))
		}
		root.EndAt(res.Timeline.Total())
	}
	return res, nil
}

// multiMatch runs one handshake-matching round set per shard: each device
// proposes for its shard from the global snapshot; the host commits the
// mutual pairs (the same semantics as the single-GPU kernels, so quality
// is unchanged).
func multiMatch(devs []*gpu.Device, shards []shardArrs, g *graph.Graph, o Options, maxVWgt, devices int) (match []int, conflicts, attempts int) {
	n := g.NumVertices()
	match = make([]int, n)
	prop := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		proposals := 0
		for d := 0; d < devices; d++ {
			lo, hi := d*n/devices, (d+1)*n/devices
			T := threadsFor(hi-lo, o.MaxThreads)
			sa := shards[d]
			devs[d].Launch(fmt.Sprintf("mg.match.r%d", round), T, func(c *gpu.Ctx) {
				j := 0
				for v := lo + c.TID(); v < hi; v += T {
					c.Converge(j)
					j++
					c.Load(sa.match, v-lo)
					prop[v] = -1
					if match[v] != -1 {
						c.Op(1)
						continue
					}
					adj, wgt := g.Neighbors(v)
					c.Load(sa.xadj, v-lo)
					c.LoadN(sa.adjncy, (v-lo)%sa.span, len(adj))
					for range adj {
						c.Load(sa.match, c.TID()%sa.span) // ghost/remote match reads
					}
					c.Op(2 + len(adj)*3)
					best, bestW, bestH := -1, -1, uint64(0)
					for i, u := range adj {
						if match[u] != -1 {
							continue
						}
						if maxVWgt > 0 && g.VWgt[v]+g.VWgt[u] > maxVWgt {
							continue
						}
						h := edgeHash(v, u)
						if wgt[i] > bestW || (wgt[i] == bestW && h > bestH) {
							best, bestW, bestH = u, wgt[i], h
						}
					}
					if best != -1 {
						prop[v] = best
						proposals++
						c.Store(sa.match, v-lo)
					}
				}
			})
		}
		if proposals == 0 {
			break
		}
		attempts += proposals
		// Host-side resolve (the cross-device equivalent of the resolve
		// kernel): mutual proposals commit.
		for v := 0; v < n; v++ {
			u := prop[v]
			if u == -1 {
				continue
			}
			if prop[u] == v {
				match[v] = u
			} else {
				conflicts++
			}
		}
	}
	for v := range match {
		if match[v] == -1 {
			match[v] = v
		}
	}
	return match, conflicts, attempts
}

// multiContract contracts per shard (rows whose representative the shard
// owns) with the hash-merge strategy, assembling the coarse graph on the
// host.
func multiContract(devs []*gpu.Device, shards []shardArrs, g *graph.Graph, o Options, match, cmap []int, coarseN, devices int) *graph.Graph {
	n := g.NumVertices()
	cg := &graph.Graph{XAdj: make([]int, coarseN+1), VWgt: make([]int, coarseN)}
	rows := make([][]int, coarseN)
	rowW := make([][]int, coarseN)
	for d := 0; d < devices; d++ {
		lo, hi := d*n/devices, (d+1)*n/devices
		T := threadsFor(hi-lo, o.MaxThreads)
		sa := shards[d]
		devs[d].Launch("mg.contract", T, func(c *gpu.Ctx) {
			idx := map[int]int{}
			j := 0
			for v := lo + c.TID(); v < hi; v += T {
				c.Converge(j)
				j++
				c.Load(sa.match, v-lo)
				u := match[v]
				if u < v {
					continue
				}
				cv := cmap[v]
				clear(idx)
				var adjOut, wgtOut []int
				members := [2]int{v, u}
				last := 0
				if u != v {
					last = 1
				}
				vw := 0
				for mi := 0; mi <= last; mi++ {
					mv := members[mi]
					vw += g.VWgt[mv]
					adj, wgt := g.Neighbors(mv)
					c.Load(sa.xadj, mv%sa.span)
					c.LoadN(sa.adjncy, mv%sa.span, len(adj))
					c.Op(3 * len(adj))
					for i, w := range adj {
						c.Load(sa.cmap, w%sa.span) // scattered cmap gather
						cu := cmap[w]
						if cu == cv {
							continue
						}
						if j, ok := idx[cu]; ok {
							wgtOut[j] += wgt[i]
						} else {
							idx[cu] = len(adjOut)
							adjOut = append(adjOut, cu)
							wgtOut = append(wgtOut, wgt[i])
						}
					}
				}
				rows[cv] = adjOut
				rowW[cv] = wgtOut
				cg.VWgt[cv] = vw
			}
		})
	}
	for cv := 0; cv < coarseN; cv++ {
		cg.XAdj[cv+1] = cg.XAdj[cv] + len(rows[cv])
	}
	cg.Adjncy = make([]int, 0, cg.XAdj[coarseN])
	cg.AdjWgt = make([]int, 0, cg.XAdj[coarseN])
	for cv := 0; cv < coarseN; cv++ {
		cg.Adjncy = append(cg.Adjncy, rows[cv]...)
		cg.AdjWgt = append(cg.AdjWgt, rowW[cv]...)
	}
	return cg
}

// multiRefine runs one buffered refinement per level across shards: scan
// kernels per device fill move requests, the host commits them under the
// balance bound, and the updated partition slices travel back. It returns
// the committed and rejected move counts for the level.
func multiRefine(devs []*gpu.Device, shards []shardArrs, g *graph.Graph, part []int, k int, o Options, m *perfmodel.Machine, res *Result, devices int, sink *obs.TimelineSink) (moves, rejected int) {
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
	for pass := 0; pass < o.RefineIters; pass++ {
		committed := 0
		requested := 0
		passSpan := sink.Begin("refine.pass", res.Timeline.Total(), obs.Int("pass", int64(pass)))
		for dir := 0; dir < 2; dir++ {
			var reqs []moveReq
			for d := 0; d < devices; d++ {
				lo, hi := d*n/devices, (d+1)*n/devices
				T := threadsFor(hi-lo, o.MaxThreads)
				conn := make([]int, k)
				var touched []int
				sa := shards[d]
				devs[d].Launch(fmt.Sprintf("mg.refine.scan.d%d", dir), T, func(c *gpu.Ctx) {
					j := 0
					for v := lo + c.TID(); v < hi; v += T {
						c.Converge(j)
						j++
						c.Load(sa.part, v-lo)
						pv := part[v]
						adj, wgt := g.Neighbors(v)
						c.Load(sa.xadj, v-lo)
						c.LoadN(sa.adjncy, (v-lo)%sa.span, len(adj))
						for range adj {
							c.Load(sa.part, c.TID()%sa.span) // scattered partition reads
						}
						c.Op(3 + 2*len(adj))
						boundary := false
						for i, u := range adj {
							pu := part[u]
							if pu != pv {
								boundary = true
							}
							if conn[pu] == 0 {
								touched = append(touched, pu)
							}
							conn[pu] += wgt[i]
						}
						if boundary {
							bestP, bestGain := -1, 0
							for _, p := range touched {
								if p == pv || (dir == 0 && p < pv) || (dir == 1 && p > pv) {
									continue
								}
								if pw[p]+g.VWgt[v] > maxPW {
									continue
								}
								if gain := conn[p] - conn[pv]; gain > bestGain {
									bestP, bestGain = p, gain
								}
							}
							if bestP != -1 && bestGain > 0 {
								reqs = append(reqs, moveReq{v: v, from: pv, gain: bestGain, vw: g.VWgt[v]})
								// request slot via atomic, as on one GPU
								c.Op(1)
							}
						}
						for _, p := range touched {
							conn[p] = 0
						}
						touched = touched[:0]
					}
				})
			}
			// Host commit (PCIe for the requests, CPU for the drain).
			var acct perfmodel.ThreadCost
			acct.Ops = float64(8 * len(reqs))
			acct.Rand = float64(2 * len(reqs))
			res.Timeline.Append("mg.refine.commit", perfmodel.LocCPU, m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))
			requested += len(reqs)
			for _, q := range reqs {
				if part[q.v] != q.from {
					continue
				}
				// moveReq carries no explicit destination here; recompute
				// the best feasible target at commit time.
				to := bestTarget(g, part, pw, maxPW, q.v, dir)
				if to == -1 {
					continue
				}
				part[q.v] = to
				pw[q.from] -= q.vw
				pw[to] += q.vw
				committed++
			}
		}
		moves += committed
		rejected += requested - committed
		sink.End(passSpan, res.Timeline.Total(),
			obs.Int("requests", int64(requested)),
			obs.Int("moves_applied", int64(committed)),
			obs.Int("moves_rejected", int64(requested-committed)))
		if committed == 0 {
			break
		}
	}
	return moves, rejected
}

// bestTarget recomputes a vertex's best balance-feasible move under the
// direction rule.
func bestTarget(g *graph.Graph, part, pw []int, maxPW, v, dir int) int {
	pv := part[v]
	adj, wgt := g.Neighbors(v)
	conn := map[int]int{}
	for i, u := range adj {
		conn[part[u]] += wgt[i]
	}
	bestP, bestGain := -1, 0
	for p, w := range conn {
		if p == pv || (dir == 0 && p < pv) || (dir == 1 && p > pv) {
			continue
		}
		if pw[p]+g.VWgt[v] > maxPW {
			continue
		}
		if gain := w - conn[pv]; gain > bestGain {
			bestP, bestGain = p, gain
		}
	}
	return bestP
}

// shardArrs are one device's accounting arrays for its shard of the graph
// and per-level vectors. The actual data lives in host-side Go slices (as
// everywhere in the simulator); these handles give the kernels an address
// space so coalescing and traffic are priced. One set is sized for the
// finest level and reused by coarser ones.
type shardArrs struct {
	span   int // elements per array (shard size at the finest level)
	xadj   gpu.Array
	adjncy gpu.Array
	match  gpu.Array
	cmap   gpu.Array
	part   gpu.Array
}

func newShardArrs(d *gpu.Device, g *graph.Graph, devices int) (shardArrs, error) {
	span := g.NumVertices()/devices + 1
	arcs := len(g.Adjncy)/devices + 1
	sa := shardArrs{span: span}
	var err error
	if sa.xadj, err = d.Malloc(span+1, 4); err != nil {
		return shardArrs{}, err
	}
	if sa.adjncy, err = d.Malloc(arcs, 4); err != nil {
		return shardArrs{}, err
	}
	if sa.match, err = d.Malloc(span, 4); err != nil {
		return shardArrs{}, err
	}
	if sa.cmap, err = d.Malloc(span, 4); err != nil {
		return shardArrs{}, err
	}
	if sa.part, err = d.Malloc(span, 4); err != nil {
		return shardArrs{}, err
	}
	return sa, nil
}

func (sa shardArrs) free(d *gpu.Device) {
	d.Free(sa.xadj)
	d.Free(sa.adjncy)
	d.Free(sa.match)
	d.Free(sa.cmap)
	d.Free(sa.part)
}
