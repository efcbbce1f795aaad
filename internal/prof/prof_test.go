package prof_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpmetis/internal/core"
	"gpmetis/internal/gpu"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
	"gpmetis/internal/prof"
)

// profiledRun partitions a mid-sized Delaunay mesh with profiling on and
// returns the run's tracer with the result, so the property tests below
// see every kernel span of a real end-to-end run (GPU coarsening,
// handoff, refinement).
func profiledRun(t *testing.T) (*obs.Tracer, *core.Result) {
	t.Helper()
	g, err := gen.Delaunay(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := perfmodel.Default()
	o := core.DefaultOptions()
	o.GPUThreshold = 256
	o.Tracer = obs.New()
	o.Profile = true
	res, err := core.Partition(g, 16, o, m)
	if err != nil {
		t.Fatal(err)
	}
	return o.Tracer, res
}

// launch is one kernel launch read back from its trace span.
type launch struct {
	name    string
	seconds float64
	stats   gpu.Stats
}

// launches returns every kernel launch span the tracer recorded, in
// launch order.
func launches(tr *obs.Tracer) []launch {
	var out []launch
	for _, sp := range tr.Spans() {
		if st, sec, ok := gpu.LaunchStats(sp); ok {
			out = append(out, launch{sp.Name, sec, st})
		}
	}
	return out
}

// TestReportReconcilesWithTimeline pins the profiler's core accounting
// guarantee: in an unfaulted single-GPU run every GPU-located timeline
// phase comes from exactly one kernel launch span, so the summed launch
// seconds equal the timeline's GPU portion bit for bit — not within a
// tolerance, exactly.
func TestReportReconcilesWithTimeline(t *testing.T) {
	tr, res := profiledRun(t)
	gpuSec := res.Timeline.TotalAt(perfmodel.LocGPU)
	var got float64
	for _, l := range launches(tr) {
		got += l.seconds
	}
	if got != gpuSec {
		t.Errorf("launch spans sum to %v, timeline GPU portion = %v (diff %g)",
			got, gpuSec, got-gpuSec)
	}
	if res.Profile == nil {
		t.Fatal("Result.Profile is nil with profiling on")
	}
	if res.Profile.KernelSeconds != res.Profile.GPUTimelineSeconds {
		t.Errorf("report does not reconcile: kernel %v vs timeline %v",
			res.Profile.KernelSeconds, res.Profile.GPUTimelineSeconds)
	}
	if res.Profile.Schema != "gpmetis-profile-v1" {
		t.Errorf("schema = %q", res.Profile.Schema)
	}
}

// TestKernelSpanInvariants property-checks every kernel launch span of a
// full partition against the counter invariants the cost model maintains.
//
// Two non-obvious bounds, pinned deliberately: atomics charge their
// transaction slots without raw accesses, so Transactions is bounded by
// Accesses+AtomicOps (not Accesses alone); and AtomicSerial counts
// same-address pile-up depth within access slots — a conflict-free
// atomic costs 0 (so the floor is 0, not AtomicOps/WarpSize), while a
// divergent warp mixing loads and atomics at one access index can pile
// loads into an atomic slot (so the ceiling is Accesses+AtomicOps, not
// AtomicOps alone).
func TestKernelSpanInvariants(t *testing.T) {
	tr, _ := profiledRun(t)
	ls := launches(tr)
	if len(ls) == 0 {
		t.Fatal("no kernel launch spans recorded")
	}
	for i, l := range ls {
		name, st := l.name, l.stats
		if name == "" {
			t.Fatalf("launch %d: empty kernel name", i)
		}
		if l.seconds <= 0 {
			t.Errorf("%s: non-positive modeled seconds %v", name, l.seconds)
		}
		if st.Threads <= 0 {
			t.Errorf("%s: launch of %d threads", name, st.Threads)
		}
		// Each warp's charged instructions are the max over its lanes:
		// at most the lane sum, at least a WarpSize-th of it.
		if st.WarpInstructions > st.LaneInstructions {
			t.Errorf("%s: warp instructions %d exceed lane instructions %d",
				name, st.WarpInstructions, st.LaneInstructions)
		}
		if 32*st.WarpInstructions < st.LaneInstructions {
			t.Errorf("%s: lane instructions %d exceed 32x warp instructions %d",
				name, st.LaneInstructions, st.WarpInstructions)
		}
		if st.AtomicSerial < 0 || st.AtomicSerial > st.Accesses+st.AtomicOps {
			t.Errorf("%s: atomic serialization %d outside [0, %d]",
				name, st.AtomicSerial, st.Accesses+st.AtomicOps)
		}
		if st.AtomicOps == 0 && st.AtomicSerial != 0 {
			t.Errorf("%s: serialization %d charged without atomics",
				name, st.AtomicSerial)
		}
		// Coalescing merges, never splits: a transaction needs at least
		// one raw access or one atomic behind it.
		if st.Transactions > st.Accesses+st.AtomicOps {
			t.Errorf("%s: transactions %d exceed accesses %d + atomics %d",
				name, st.Transactions, st.Accesses, st.AtomicOps)
		}
		if st.Transactions < 0 || st.Accesses < 0 || st.AtomicOps < 0 {
			t.Errorf("%s: negative counters %+v", name, st)
		}
		for ratio, v := range map[string]float64{
			"coalescing": st.CoalescingEfficiency(),
			"divergence": st.DivergenceFactor(),
			"atomicser":  st.AtomicSerializationRatio(),
		} {
			if v < 0 || v != v {
				t.Errorf("%s: %s ratio = %v", name, ratio, v)
			}
		}
		if f := st.DivergenceFactor(); st.LaneInstructions > 0 && (f < 1 || f > 32) {
			t.Errorf("%s: divergence factor %v outside [1, 32]", name, f)
		}
	}
}

// TestKernelSpansSumToRunTotals checks the kernel launch spans are a
// complete decomposition: summed across every launch they equal the
// device's run-total Stats on all launch-charged counters, and so do the
// report's per-kernel rollups. (Transfer bytes are charged by
// uploads/downloads, not launches, so those two fields stay zero.)
func TestKernelSpansSumToRunTotals(t *testing.T) {
	tr, res := profiledRun(t)
	var spans, kernels gpu.Stats
	for _, l := range launches(tr) {
		spans = spans.Add(l.stats)
	}
	launched := 0
	for _, k := range res.Profile.Kernels {
		kernels = kernels.Add(k.Stats)
		launched += k.Launches
	}
	want := res.KernelStats
	want.BytesToDevice = 0
	want.BytesToHost = 0
	if spans != want {
		t.Errorf("launch spans sum to %+v,\nrun totals are     %+v", spans, want)
	}
	if kernels != want || launched != want.Kernels {
		t.Errorf("report kernels sum to %+v over %d launches,\nrun totals are      %+v",
			kernels, launched, want)
	}
}

// TestReportScopedToRunRoot checks the reduction reads only the run's own
// kernel spans: launches under another root, auxiliary per-device
// launches, and GPU-located spans without launch counters (fault-retry
// phases) are all left out.
func TestReportScopedToRunRoot(t *testing.T) {
	tr := obs.New()
	other := obs.NewTimelineSink(tr.Root("other", "host", 0), 0)
	run := tr.Root("gpmetis.run", "host", 0)
	sink := obs.NewTimelineSink(run, 0)
	st := gpu.Stats{Kernels: 1, Threads: 64, WarpInstructions: 10, LaneInstructions: 300}
	gpu.TraceLaunch(sink, "mine", 0, 2e-5, st)
	gpu.TraceLaunch(other, "theirs", 0, 3e-5, st)
	aux := obs.NewTimelineSink(run.Child("device", 0).MarkAux(), 0)
	gpu.TraceLaunch(aux, "aux", 0, 4e-5, st)
	sink.Leaf("fault.retry.gpu.kernel", 2e-5, 5e-5, obs.Str("loc", perfmodel.LocGPU.String()))
	rep := prof.NewReport(perfmodel.Default(), tr, run, 2e-5)
	if len(rep.Kernels) != 1 || rep.Kernels[0].Kernel != "mine" || rep.KernelSeconds != 2e-5 {
		t.Errorf("report over the run root = %d kernels, %v s (%+v); want only \"mine\", 2e-05 s",
			len(rep.Kernels), rep.KernelSeconds, rep.Kernels)
	}
}

// observe traces one synthetic launch under a fresh run root and returns
// its single-kernel profile.
func observe(t *testing.T, st gpu.Stats, sec float64) prof.KernelProfile {
	t.Helper()
	tr := obs.New()
	root := tr.Root("run", "host", 0)
	gpu.TraceLaunch(obs.NewTimelineSink(root, 0), "synthetic", 0, sec, st)
	ks := prof.NewReport(perfmodel.Default(), tr, root, sec).Kernels
	if len(ks) != 1 {
		t.Fatalf("got %d profiles, want 1", len(ks))
	}
	return ks[0]
}

// TestRooflineClassification forces each dominant term with hand-built
// counters and checks the classifier names it.
func TestRooflineClassification(t *testing.T) {
	cases := []struct {
		name string
		st   gpu.Stats
		want prof.Bound
	}{
		{"compute", gpu.Stats{Kernels: 1, Threads: 1 << 20,
			WarpInstructions: 1 << 40, LaneInstructions: 32 << 40}, prof.BoundCompute},
		{"atomic", gpu.Stats{Kernels: 1, Threads: 1 << 20,
			AtomicOps: 1 << 40, AtomicSerial: 1 << 40}, prof.BoundAtomic},
		{"launch", gpu.Stats{Kernels: 1, Threads: 32,
			WarpInstructions: 1, LaneInstructions: 32}, prof.BoundLaunch},
	}
	for _, c := range cases {
		if got := observe(t, c.st, 1).Bound; got != c.want {
			t.Errorf("%s-heavy kernel classified %s, want %s", c.name, got, c.want)
		}
	}
	// Memory vs latency both scale with Transactions; whichever the
	// machine model makes larger must win, and it must be one of the two.
	st := gpu.Stats{Kernels: 1, Threads: 1 << 20,
		Transactions: 1 << 40, Accesses: 32 << 40}
	got := observe(t, st, 1).Bound
	if got != prof.BoundMemory && got != prof.BoundLatency {
		t.Errorf("transaction-heavy kernel classified %s, want memory or latency", got)
	}
}

// TestHints checks each hint rule fires on counters that violate it and
// stays quiet on a well-behaved kernel.
func TestHints(t *testing.T) {
	clean := observe(t, gpu.Stats{Kernels: 1, Threads: 1 << 20,
		WarpInstructions: 1 << 30, LaneInstructions: 32 << 30,
		Accesses: 3200, Transactions: 100}, 1)
	if len(clean.Hints) != 0 {
		t.Errorf("well-behaved kernel got hints: %v", clean.Hints)
	}
	for _, c := range []struct {
		name string
		st   gpu.Stats
		frag string
	}{
		{"coalescing", gpu.Stats{Kernels: 1, Threads: 1024,
			Accesses: 1000, Transactions: 900}, "coalescing"},
		{"divergence", gpu.Stats{Kernels: 1, Threads: 1024,
			WarpInstructions: 1000, LaneInstructions: 3200}, "divergence"},
		{"atomics", gpu.Stats{Kernels: 1, Threads: 1024,
			AtomicOps: 1000, AtomicSerial: 800}, "atomics serialize"},
	} {
		k := observe(t, c.st, 1)
		found := false
		for _, h := range k.Hints {
			if strings.Contains(h, c.frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s rule: no hint containing %q in %v", c.name, c.frag, k.Hints)
		}
	}
}

// TestTable checks the human-readable rendering: header, per-kernel rows,
// the exact total, and the truncation footer for top-N.
func TestTable(t *testing.T) {
	_, res := profiledRun(t)
	rep := res.Profile
	full := rep.Table(0)
	for _, want := range []string{"KERNEL", "BOUND", "TOTAL", "coarsen.match.r0"} {
		if !strings.Contains(full, want) {
			t.Errorf("table missing %q:\n%s", want, full)
		}
	}
	if len(rep.Kernels) < 3 {
		t.Fatalf("only %d kernels profiled", len(rep.Kernels))
	}
	top := rep.Table(2)
	if !strings.Contains(top, "more kernels") {
		t.Errorf("top-2 table lacks truncation footer:\n%s", top)
	}
	// Rows are sorted by descending seconds.
	for i := 1; i < len(rep.Kernels); i++ {
		if rep.Kernels[i].Seconds > rep.Kernels[i-1].Seconds {
			t.Errorf("kernels not sorted: %q (%v) after %q (%v)",
				rep.Kernels[i].Kernel, rep.Kernels[i].Seconds,
				rep.Kernels[i-1].Kernel, rep.Kernels[i-1].Seconds)
		}
	}
}

// TestWriteJSONRoundTrip checks the export decodes back into an
// equivalent report.
func TestWriteJSONRoundTrip(t *testing.T) {
	_, res := profiledRun(t)
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back prof.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != res.Profile.Schema || len(back.Kernels) != len(res.Profile.Kernels) {
		t.Errorf("round trip lost shape: %q %d kernels vs %q %d",
			back.Schema, len(back.Kernels), res.Profile.Schema, len(res.Profile.Kernels))
	}
	if back.KernelSeconds != res.Profile.KernelSeconds {
		t.Errorf("round trip changed kernel seconds: %v vs %v",
			back.KernelSeconds, res.Profile.KernelSeconds)
	}
	if back.Machine.RidgePointOpsPerByte <= 0 {
		t.Errorf("machine summary lost ridge point: %+v", back.Machine)
	}
}
