package core

import (
	"math"
	"testing"

	"gpmetis/internal/gpu"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/obs"
)

// tracedRun partitions a 60x60 grid with tracing on and hands back both
// results for the reconciliation tests.
func tracedRun(t *testing.T) (*Result, *obs.Tracer) {
	t.Helper()
	g, err := gen.Grid2D(60, 60)
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Tracer = obs.New()
	res, err := Partition(g, 4, o, machine())
	if err != nil {
		t.Fatal(err)
	}
	return res, o.Tracer
}

func TestTraceReconcilesWithTimeline(t *testing.T) {
	res, tr := tracedRun(t)
	modeled := res.ModeledSeconds()
	leaf := tr.LeafSeconds()
	if modeled <= 0 {
		t.Fatal("no modeled time")
	}
	if rel := math.Abs(leaf-modeled) / modeled; rel > 0.01 {
		t.Errorf("trace leaf sum %g vs modeled %g: relative error %g exceeds 1%%", leaf, modeled, rel)
	}
	// The root span covers the whole run.
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	root := spans[0]
	if root.Name != "gpmetis.run" {
		t.Fatalf("first span is %q, want gpmetis.run", root.Name)
	}
	if math.Abs(root.Dur()-modeled) > 1e-12 {
		t.Errorf("root span dur %g != modeled %g", root.Dur(), modeled)
	}
}

func TestTraceLevelSpansMatchLevelCounts(t *testing.T) {
	res, tr := tracedRun(t)
	var gpuCoarsen, cpuCoarsen, gpuUncoarsen, cpuUncoarsen int
	for _, sp := range tr.Spans() {
		var side string
		if a, ok := sp.Attr("side"); ok {
			side = a.StrV
		}
		switch sp.Name {
		case obs.SpanCoarsenLevel:
			switch side {
			case "gpu":
				gpuCoarsen++
			case "cpu":
				cpuCoarsen++
			}
			// Every level span must report its size, ratio, and conflict
			// rate for the -report table.
			for _, key := range []string{"vertices", "edges", "ratio", "conflict_rate"} {
				if _, ok := sp.Attr(key); !ok {
					t.Errorf("coarsen level span (side=%s) missing attr %q", side, key)
				}
			}
		case obs.SpanUncoarsenLevel:
			switch side {
			case "gpu":
				gpuUncoarsen++
			case "cpu":
				cpuUncoarsen++
			}
		}
	}
	if gpuCoarsen != res.GPULevels {
		t.Errorf("gpu coarsen.level spans = %d, want GPULevels = %d", gpuCoarsen, res.GPULevels)
	}
	if cpuCoarsen != res.CPULevels {
		t.Errorf("cpu coarsen.level spans = %d, want CPULevels = %d", cpuCoarsen, res.CPULevels)
	}
	if gpuUncoarsen != res.GPULevels {
		t.Errorf("gpu uncoarsen.level spans = %d, want %d", gpuUncoarsen, res.GPULevels)
	}
	if cpuUncoarsen != res.CPULevels {
		t.Errorf("cpu uncoarsen.level spans = %d, want %d", cpuUncoarsen, res.CPULevels)
	}
}

// TestLevelStatsSumToRunTotal is the per-level stats hygiene regression:
// each GPU level span's gpu.* counters must equal the sum of the kernel
// launch spans beneath it, and the kernel spans of the whole run must add
// up to the device's run totals, so attribution never loses or
// double-counts activity.
func TestLevelStatsSumToRunTotal(t *testing.T) {
	res, tr := tracedRun(t)
	spans := tr.Spans()
	var run gpu.Stats
	perLevel := map[*obs.Span]gpu.Stats{}
	for _, sp := range spans {
		st, _, ok := gpu.LaunchStats(sp)
		if !ok {
			continue
		}
		run = run.Add(st)
		for p := sp.Parent(); p != nil; p = p.Parent() {
			if p.Name == obs.SpanCoarsenLevel || p.Name == obs.SpanUncoarsenLevel {
				perLevel[p] = perLevel[p].Add(st)
				break
			}
		}
	}
	want := res.KernelStats
	want.BytesToDevice, want.BytesToHost = 0, 0
	if run != want {
		t.Errorf("kernel spans sum to %+v,\nrun totals are    %+v", run, want)
	}
	levels := 0
	for _, sp := range spans {
		if _, ok := sp.Attr("gpu.kernels"); !ok {
			continue
		}
		levels++
		sum := perLevel[sp]
		if sum.Kernels == 0 {
			t.Errorf("%s level %v: no kernel spans beneath it", sp.Name, sp.Attrs())
		}
		for _, a := range sum.Attrs("gpu.") {
			if a.Key == "gpu.bytes_to_device" || a.Key == "gpu.bytes_to_host" {
				continue // transfers are not launches
			}
			if got, _ := sp.Attr(a.Key); got.IntV != a.IntV {
				t.Errorf("%s span %d: %s = %d, kernel spans beneath it sum to %d",
					sp.Name, sp.ID, a.Key, got.IntV, a.IntV)
			}
		}
	}
	if want := 2 * res.GPULevels; levels != want {
		t.Errorf("%d level spans carry gpu.* counters, want %d (coarsen + uncoarsen per GPU level)", levels, want)
	}
}

func TestTraceMetricsCounters(t *testing.T) {
	res, tr := tracedRun(t)
	met := tr.Metrics().Snapshot()
	if got := met["match.conflicts"]; got != float64(res.MatchConflicts) {
		t.Errorf("counter match.conflicts = %g, want %d", got, res.MatchConflicts)
	}
	if got := met["match.attempts"]; got != float64(res.MatchAttempts) {
		t.Errorf("counter match.attempts = %g, want %d", got, res.MatchAttempts)
	}
	if got := met["coarsen.gpu_levels"]; got != float64(res.GPULevels) {
		t.Errorf("counter coarsen.gpu_levels = %g, want %d", got, res.GPULevels)
	}
	if got := met["pcie.bytes_to_device"]; got != float64(res.KernelStats.BytesToDevice) {
		t.Errorf("counter pcie.bytes_to_device = %g, want %d", got, res.KernelStats.BytesToDevice)
	}
}

func TestMatchConflictRate(t *testing.T) {
	var r Result
	if got := r.MatchConflictRate(); got != 0 {
		t.Errorf("zero-attempt conflict rate = %g, want 0 (div-by-zero guard)", got)
	}
	r.MatchConflicts, r.MatchAttempts = 3, 12
	if got := r.MatchConflictRate(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("conflict rate = %g, want 0.25", got)
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	g, err := gen.Grid2D(50, 50)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Partition(g, 4, smallOpts(), machine())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Tracer = obs.New()
	traced, err := Partition(g, 4, o, machine())
	if err != nil {
		t.Fatal(err)
	}
	if plain.EdgeCut != traced.EdgeCut || plain.ModeledSeconds() != traced.ModeledSeconds() {
		t.Errorf("tracing changed the run: cut %d/%d modeled %g/%g",
			plain.EdgeCut, traced.EdgeCut, plain.ModeledSeconds(), traced.ModeledSeconds())
	}
}

func TestMultiGPUTrace(t *testing.T) {
	g, err := gen.Grid2D(80, 80)
	if err != nil {
		t.Fatal(err)
	}
	m := machine()
	m.GPU.GlobalMemBytes = 2 * g.Bytes() // force the sharded coarsening path
	o := smallOpts()
	o.Tracer = obs.New()
	res, err := PartitionMulti(g, 4, 2, o, m)
	if err != nil {
		t.Fatal(err)
	}
	modeled := res.ModeledSeconds()
	leaf := o.Tracer.LeafSeconds()
	if rel := math.Abs(leaf-modeled) / modeled; rel > 0.01 {
		t.Errorf("multi-GPU trace leaf sum %g vs modeled %g: relative error %g", leaf, modeled, rel)
	}
	var multiLevels, auxSpans int
	tracks := map[string]bool{}
	for _, sp := range o.Tracer.Spans() {
		tracks[sp.Track] = true
		if sp.Aux {
			auxSpans++
		}
		if sp.Name == obs.SpanCoarsenLevel {
			if a, ok := sp.Attr("side"); ok && a.StrV == "multigpu" {
				multiLevels++
			}
		}
	}
	if multiLevels == 0 {
		t.Error("no multigpu coarsen.level spans recorded")
	}
	if auxSpans == 0 {
		t.Error("no auxiliary per-device spans recorded")
	}
	for _, want := range []string{"host", "gpu0", "gpu1"} {
		if !tracks[want] {
			t.Errorf("missing track %q (have %v)", want, tracks)
		}
	}
}
