package core

import (
	"fmt"

	"gpmetis/internal/checkpoint"
	"gpmetis/internal/fault"
	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
	"gpmetis/internal/metis"
	"gpmetis/internal/mtmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
	"gpmetis/internal/prof"
)

// FaultEvent records one fault the pipeline absorbed instead of failing:
// a contraction falling back to sort-merge, a degradation to the CPU
// pipeline, a multi-GPU shard redistribution.
type FaultEvent struct {
	// Site is the fault site that triggered the event.
	Site fault.Site
	// Action names the policy applied: "hash-to-sort", "degrade-cpu",
	// "restart-cpu", "redistribute".
	Action string
	// Level is the coarsening/uncoarsening level at the event, -1 when
	// not applicable.
	Level int
	// Seconds is the modeled time at which the event was absorbed.
	Seconds float64
	// Detail carries the underlying error text.
	Detail string
}

// Result is the outcome of a GP-metis run.
type Result struct {
	// Part assigns each vertex of the input graph a partition in [0,k).
	Part []int
	// EdgeCut is the weight of edges crossing partitions.
	EdgeCut int
	// GPULevels and CPULevels count the coarsening levels performed on
	// each side of the threshold.
	GPULevels, CPULevels int
	// Timeline holds the modeled phase durations across GPU kernels,
	// PCIe transfers, and CPU phases.
	Timeline perfmodel.Timeline
	// MatchConflicts / MatchAttempts expose the lock-free matching
	// conflict rate on the GPU levels (Section IV discusses how the
	// thousands of concurrent threads raise it above mt-metis's).
	MatchConflicts, MatchAttempts int
	// KernelStats aggregates the simulated device activity.
	KernelStats gpu.Stats
	// Profile is the per-kernel roofline report, non-nil only when
	// Options.Profile was set. Its KernelSeconds reconcile exactly with
	// the GPU portion of Timeline for unfaulted, un-resumed single-GPU
	// runs; fault retries and pre-crash phases of a resumed run charge
	// GPU time outside any traced launch.
	Profile *prof.Report
	// Degraded reports that a GPU-side fault forced the run onto the
	// mt-metis CPU pipeline (Options.Degrade); the partition is still
	// valid, the modeled time includes the wasted GPU work.
	Degraded bool
	// DegradedReason says which fault forced the degradation, e.g.
	// "gpu-oom@coarsen.L2" or "device-lost@uncoarsen.L1".
	DegradedReason string
	// Events lists every fault the run absorbed, in order.
	Events []FaultEvent
}

// ModeledSeconds returns the total modeled runtime, including CPU<->GPU
// transfer time as in the paper's Table II.
func (r *Result) ModeledSeconds() float64 { return r.Timeline.Total() }

// MatchConflictRate returns the fraction of lock-free match proposals
// that the resolve step rejected, or 0 when no proposals were made.
func (r *Result) MatchConflictRate() float64 {
	if r.MatchAttempts == 0 {
		return 0
	}
	return float64(r.MatchConflicts) / float64(r.MatchAttempts)
}

// Partition runs the full GP-metis pipeline of Figure 1 on the modeled
// CPU-GPU system.
func Partition(g *graph.Graph, k int, o Options, m *perfmodel.Machine) (*Result, error) {
	return partitionRun(g, k, o, m, nil, 0)
}

// run carries one pipeline execution's state across its stages, so the
// fault-absorption paths can resume from wherever a stage died.
type run struct {
	g *graph.Graph
	k int
	o Options
	m *perfmodel.Machine

	res  *Result
	d    *gpu.Device
	root *obs.Span
	sink *obs.TimelineSink
	met  *obs.Registry
	off  float64

	levels []gpuLevel // GPU coarsening levels, finest first
	cur    devGraph   // current coarsest graph on the device
	part   []int      // current partition vector
	pl     int        // part is a partition of levels[pl].fine (len(levels) = of cur)
	cpart  gpu.Array  // device mirror of part during uncoarsening

	digest uint64 // input-graph fingerprint, for checkpoint/resume

	deviceDead bool // a DeviceLost unwound: the GPU is gone for this run
}

// partitionRun is Partition with trace context: when invoked as the
// single-GPU tail of the multi-GPU pipeline, parent/offset place its
// spans inside the enclosing trace at the right modeled time.
//
// The pipeline runs as three guarded stages — GPU coarsening, the CPU
// middle phase, GPU uncoarsening — so that a device fault unwinding out
// of a stage can be absorbed (Options.Degrade) by resuming on the CPU
// from the stage's last coherent state.
func partitionRun(g *graph.Graph, k int, o Options, m *perfmodel.Machine, parent *obs.Span, offset float64) (*Result, error) {
	if err := o.validate(g, k); err != nil {
		return nil, err
	}
	if o.Faults != nil && o.Retry == (fault.RetryPolicy{}) {
		o.Retry = fault.DefaultRetryPolicy()
	}
	if o.Profile && o.Tracer == nil {
		// The profile is a reduction over the run's kernel spans.
		o.Tracer = obs.New()
	}
	res := &Result{}
	d := gpu.NewDevice(m, &res.Timeline)
	r := &run{g: g, k: k, o: o, m: m, res: res, d: d, off: offset}
	if o.Checkpoint != nil || o.Resume != nil {
		r.digest = checkpoint.DigestGraph(g)
	}

	// --- Tracing setup: one pointer check per hook when disabled ---
	r.met = o.Tracer.Metrics()
	if o.Tracer.Enabled() {
		attrs := []obs.Attr{
			obs.Int("vertices", int64(g.NumVertices())),
			obs.Int("edges", int64(g.NumEdges())),
			obs.Int("k", int64(k)),
		}
		if parent == nil {
			r.root = o.Tracer.Root("gpmetis.run", "host", offset, attrs...)
		} else {
			r.root = parent.Child("gpmetis.single", offset, attrs...)
		}
		r.sink = obs.NewTimelineSink(r.root, offset)
		res.Timeline.Observe(r.sink)
		d.SetTraceSink(r.sink)
	}

	// Restore runs before the injector is installed so rebuilding device
	// state burns no fault coins; the restored coin counters then line
	// the injector up with the interrupted run's sequence.
	var resumedFrom checkpoint.Phase
	if o.Resume != nil {
		resumedFrom = o.Resume.Phase
		if err := r.restore(o.Resume); err != nil {
			return nil, err
		}
	}
	d.SetFaults(o.Faults, o.Retry)

	if resumedFrom < checkpoint.PhaseCPUDone {
		if err := r.guard(func() error { return r.coarsenGPU(resumedFrom == checkpoint.PhaseCoarsen) }); err != nil {
			if aerr := r.absorbCoarsenFault(err); aerr != nil {
				return nil, aerr
			}
			return r.finish()
		}
		if err := r.cpuPhase(); err != nil {
			return nil, err
		}
	}
	uncoarsen := r.uncoarsenGPU
	if resumedFrom == checkpoint.PhaseUncoarsen {
		// The handoff happened before the snapshot: continue straight
		// into the remaining levels with the restored device partition.
		uncoarsen = func() error { return r.uncoarsenFrom(r.pl) }
	}
	if err := r.guard(uncoarsen); err != nil {
		if aerr := r.absorbUncoarsenFault(err); aerr != nil {
			return nil, aerr
		}
	}
	return r.finish()
}

// guard runs one pipeline stage, converting a modeled device death (the
// *fault.DeviceLost panic a kernel or transfer unwinds with after its
// retry budget is exhausted) into an error and marking the device dead.
func (r *run) guard(stage func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			dl, ok := p.(*fault.DeviceLost)
			if !ok {
				panic(p)
			}
			r.deviceDead = true
			err = dl
		}
	}()
	return stage()
}

// event records one absorbed fault in the result, the metrics registry,
// and (as an instant span) the trace.
func (r *run) event(site fault.Site, action string, level int, detail string) {
	now := r.res.Timeline.Total()
	r.res.Events = append(r.res.Events, FaultEvent{
		Site: site, Action: action, Level: level, Seconds: now, Detail: detail,
	})
	r.met.Add("fault.events", 1)
	r.met.Add("fault."+action, 1)
	if r.sink != nil {
		r.sink.Leaf("fault."+action, now, 0,
			obs.Str("site", string(site)),
			obs.Int("level", int64(level)),
			obs.Str("detail", detail))
	}
}

// coarsenGPU uploads the graph and runs GPU coarsening level by level
// down to the threshold (pipeline steps 1-2).
// canceled polls the cooperative cancellation hook; a non-nil return
// wraps both ErrCanceled and the hook's cause so callers can test for
// either with errors.Is.
func (r *run) canceled() error {
	if r.o.Cancel == nil {
		return nil
	}
	if err := r.o.Cancel(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

func (r *run) coarsenGPU(resumed bool) error {
	if !resumed {
		// Initially, the graph information is copied to the GPU's global
		// memory (Section III).
		dg, err := allocGraph(r.d, r.g)
		if err != nil {
			return fmt.Errorf("core: input graph exceeds device memory: %w", err)
		}
		r.d.ToDevice("h2d.graph", dg.bytes())
		r.cur = dg
	}

	maxVWgt := metis.MaxVertexWeight(r.g, r.k, r.o.CoarsenTo)
	o, d := r.o, r.d
	for r.cur.g.NumVertices() > o.GPUThreshold {
		if err := r.canceled(); err != nil {
			return err
		}
		cur := r.cur
		lvlIdx := len(r.levels)
		before := d.Stats()
		fineN := cur.g.NumVertices()
		lvlSpan := r.sink.Begin(obs.SpanCoarsenLevel, r.res.Timeline.Total(),
			obs.Str("side", "gpu"),
			obs.Int("level", int64(lvlIdx)),
			obs.Int("vertices", int64(fineN)),
			obs.Int("edges", int64(cur.g.NumEdges())))
		matchArr, err := d.Malloc(cur.g.NumVertices(), 4)
		if err != nil {
			return fmt.Errorf("core: match array: %w", err)
		}
		match, conflicts, attempts := matchKernels(d, cur, o, maxVWgt, matchArr)
		r.res.MatchConflicts += conflicts
		r.res.MatchAttempts += attempts
		r.met.Add("match.conflicts", float64(conflicts))
		r.met.Add("match.attempts", float64(attempts))

		cmap, coarseN, err := cmapKernels(d, o, match, matchArr)
		if err != nil {
			return err
		}
		if float64(coarseN) > 0.95*float64(cur.g.NumVertices()) {
			// Matching stalled (pathological input); hand off early.
			d.Free(matchArr)
			r.sink.End(lvlSpan, r.res.Timeline.Total(), obs.Bool("stalled", true))
			break
		}
		cmapArr, err := d.Malloc(len(cmap), 4)
		if err != nil {
			return fmt.Errorf("core: cmap array: %w", err)
		}
		cg, hashFellBack, err := contractKernels(d, cur, o, match, cmap, coarseN, matchArr, cmapArr)
		if err != nil {
			return err
		}
		if hashFellBack {
			r.event(fault.SiteHashOverflow, "hash-to-sort", lvlIdx,
				"hash tables overflowed; level contracted by sort-merge")
		}
		d.Free(matchArr) // the matching is not needed past contraction
		if o.Verify {
			if err := graph.VerifyCoarsening(cur.g, cg, cmap); err != nil {
				return fmt.Errorf("core: coarsen level %d: %w", lvlIdx, err)
			}
		}
		cdg, err := allocGraph(d, cg)
		if err != nil {
			return fmt.Errorf("core: coarse graph at level %d: %w", lvlIdx, err)
		}
		// The fine graph's arrays and the cmap stay allocated: the paper
		// keeps "a set of pointer arrays" for the projection phase.
		r.levels = append(r.levels, gpuLevel{fine: cur, cmap: cmap, cmapArr: cmapArr, coarse: cdg})
		r.cur = cdg

		var rate float64
		if attempts > 0 {
			rate = float64(conflicts) / float64(attempts)
		}
		if lvlSpan != nil {
			lvlSpan.Set(d.Stats().Sub(before).Attrs("gpu.")...)
		}
		r.sink.End(lvlSpan, r.res.Timeline.Total(),
			obs.Int("coarse_vertices", int64(coarseN)),
			obs.Float("ratio", float64(coarseN)/float64(fineN)),
			obs.Int("conflicts", int64(conflicts)),
			obs.Int("attempts", int64(attempts)),
			obs.Float("conflict_rate", rate))
		if err := r.snapshot(checkpoint.PhaseCoarsen, len(r.levels)); err != nil {
			return err
		}
	}
	r.res.GPULevels = len(r.levels)
	r.met.Set("coarsen.gpu_levels", float64(r.res.GPULevels))
	return nil
}

// cpuPhase moves the coarse graph to the CPU, where mt-metis finishes
// coarsening, computes the initial partitioning, and refines the coarse
// levels (pipeline step 3).
func (r *run) cpuPhase() error {
	if err := r.canceled(); err != nil {
		return err
	}
	r.d.ToHost("d2h.coarse", r.cur.g.Bytes())
	cpuSpan := r.sink.Begin("cpu.phase", r.res.Timeline.Total(),
		obs.Str("side", "cpu"), obs.Int("vertices", int64(r.cur.g.NumVertices())))
	if r.cur.g.NumVertices() < r.k {
		return fmt.Errorf("core: GPU coarsening collapsed below k=%d vertices; lower GPUThreshold", r.k)
	}
	mtRes, err := mtmetis.Partition(r.cur.g, r.k, r.mtOptions(cpuSpan), r.m)
	if err != nil {
		return fmt.Errorf("core: CPU phase: %w", err)
	}
	r.res.Timeline.Merge(&mtRes.Timeline)
	r.res.CPULevels = mtRes.Levels
	r.met.Set("coarsen.cpu_levels", float64(r.res.CPULevels))
	// The CPU phase's lock-free matching conflicts count toward the run's
	// rate too (its levels just see far fewer concurrent threads).
	r.res.MatchConflicts += mtRes.MatchConflicts
	r.res.MatchAttempts += mtRes.MatchAttempts
	r.met.Add("match.conflicts", float64(mtRes.MatchConflicts))
	r.met.Add("match.attempts", float64(mtRes.MatchAttempts))
	r.part = mtRes.Part
	r.pl = len(r.levels)
	r.sink.End(cpuSpan, r.res.Timeline.Total(), obs.Int("levels", int64(mtRes.Levels)))
	return r.snapshot(checkpoint.PhaseCPUDone, len(r.levels))
}

// mtOptions builds the mt-metis options for a CPU phase rooted at span.
func (r *run) mtOptions(span *obs.Span) mtmetis.Options {
	return mtmetis.Options{
		Seed:        r.o.Seed,
		UBFactor:    r.o.UBFactor,
		CoarsenTo:   r.o.CoarsenTo,
		RefineIters: r.o.RefineIters,
		Threads:     r.o.CPUThreads,
		Verify:      r.o.Verify,
		Trace:       span,
		TraceOffset: r.off + r.res.Timeline.Total(),
	}
}

// uncoarsenGPU returns to the GPU for the remaining un-coarsening levels
// (pipeline step 4) and downloads the final partition.
func (r *run) uncoarsenGPU() error {
	d := r.d
	cpartArr, err := d.Malloc(r.cur.g.NumVertices(), 4)
	if err != nil {
		return fmt.Errorf("core: partition vector: %w", err)
	}
	d.ToDevice("h2d.part", int64(4*r.cur.g.NumVertices()))
	r.cpart = cpartArr
	return r.uncoarsenFrom(len(r.levels))
}

// uncoarsenFrom projects and refines levels top-1 down to 0, with the
// current coarse partition already on the device in r.cpart. It is the
// shared tail of a fresh handoff and a mid-uncoarsening resume.
func (r *run) uncoarsenFrom(top int) error {
	d, o := r.d, r.o
	for i := top - 1; i >= 0; i-- {
		if err := r.canceled(); err != nil {
			return err
		}
		lvl := r.levels[i]
		before := d.Stats()
		lvlSpan := r.sink.Begin(obs.SpanUncoarsenLevel, r.res.Timeline.Total(),
			obs.Str("side", "gpu"),
			obs.Int("level", int64(i)),
			obs.Int("vertices", int64(lvl.fine.g.NumVertices())),
			obs.Int("edges", int64(lvl.fine.g.NumEdges())))
		partArr, err := d.Malloc(lvl.fine.g.NumVertices(), 4)
		if err != nil {
			return fmt.Errorf("core: fine partition vector: %w", err)
		}
		cpart := r.part
		r.part = projectKernel(d, lvl, cpart, o, partArr, r.cpart)
		r.pl = i
		if o.Verify {
			if err := graph.VerifyProjection(lvl.fine.g, lvl.coarse.g, lvl.cmap, r.part, cpart); err != nil {
				return fmt.Errorf("core: uncoarsen level %d: %w", i, err)
			}
		}
		ref, err := refineKernels(d, lvl.fine, r.part, r.k, o, partArr)
		if err != nil {
			return err
		}
		if o.Verify {
			if err := graph.VerifyPartition(lvl.fine.g, r.part, r.k, 0); err != nil {
				return fmt.Errorf("core: uncoarsen level %d after refinement: %w", i, err)
			}
		}
		r.met.Add("refine.moves", float64(ref.moves))
		r.met.Add("refine.rejected", float64(ref.rejected))
		r.met.Add("refine.boundary", float64(ref.boundary))
		// This level's coarse-side resources are no longer needed.
		d.Free(r.cpart)
		d.Free(lvl.cmapArr)
		lvl.coarse.free(d)
		r.cpart = partArr

		if lvlSpan != nil {
			lvlSpan.Set(d.Stats().Sub(before).Attrs("gpu.")...)
		}
		r.sink.End(lvlSpan, r.res.Timeline.Total(),
			obs.Int("moves", int64(ref.moves)),
			obs.Int("rejected", int64(ref.rejected)),
			obs.Int("boundary", int64(ref.boundary)),
			obs.Int("passes", int64(ref.passes)))
		if err := r.snapshot(checkpoint.PhaseUncoarsen, i); err != nil {
			return err
		}
	}
	d.ToHost("d2h.part", int64(4*r.g.NumVertices()))
	d.Free(r.cpart)
	if len(r.levels) > 0 {
		r.levels[0].fine.free(d)
	} else {
		r.cur.free(d)
	}
	return nil
}

// finish applies the final balance pass, checks for device-memory leaks,
// runs the final paranoid verification, and seals the result.
func (r *run) finish() (*Result, error) {
	res := r.res
	// Final balance safety net on the CPU ("the balance of partitions is
	// guaranteed by continuing the refinement at the finer graph levels";
	// we enforce the bound explicitly at the finest level).
	var acct perfmodel.ThreadCost
	metis.BalancePartition(r.g, r.part, r.k, r.o.UBFactor, &acct)
	res.Timeline.Append("balance", perfmodel.LocCPU, r.m.CPUPhaseSeconds([]perfmodel.ThreadCost{acct}))

	// Everything the pipeline allocated must be released by now; a leak
	// here means a lost handle that would exhaust the 6 GB device over
	// repeated runs. A degraded run abandoned its device state mid-flight
	// by design, so the check only applies to clean runs.
	if !res.Degraded && r.d.Allocated() != 0 {
		return nil, fmt.Errorf("core: internal device-memory leak: %d bytes still allocated", r.d.Allocated())
	}

	if r.o.Verify {
		if err := graph.VerifyPartition(r.g, r.part, r.k, 0); err != nil {
			return nil, fmt.Errorf("core: final partition: %w", err)
		}
	}

	res.Part = r.part
	res.EdgeCut = graph.EdgeCut(r.g, r.part)
	res.KernelStats = r.d.Stats()
	if r.o.Profile {
		res.Profile = prof.NewReport(r.m, r.o.Tracer, r.root, res.Timeline.TotalAt(perfmodel.LocGPU))
	}
	r.met.Add("pcie.bytes_to_device", float64(res.KernelStats.BytesToDevice))
	r.met.Add("pcie.bytes_to_host", float64(res.KernelStats.BytesToHost))
	if res.Degraded {
		r.met.Set("fault.degraded", 1)
	}
	if r.o.Faults != nil {
		for _, s := range fault.Sites {
			if n := r.o.Faults.Fires(s); n > 0 {
				r.met.Set("fault.fires."+string(s), float64(n))
			}
		}
	}
	if r.root != nil {
		r.root.Set(
			obs.Int("edge_cut", int64(res.EdgeCut)),
			obs.Float("modeled_seconds", res.ModeledSeconds()),
			obs.Float("conflict_rate", res.MatchConflictRate()))
		if res.Degraded {
			r.root.Set(
				obs.Bool("degraded", true),
				obs.Str("degraded_reason", res.DegradedReason))
		}
		if len(res.Events) > 0 {
			r.root.Set(obs.Int("fault_events", int64(len(res.Events))))
		}
		r.root.EndAt(r.off + res.Timeline.Total())
	}
	return res, nil
}
