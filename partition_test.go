package gpmetis

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gpmetis/internal/graph"
)

func TestPublicAPIAllAlgorithms(t *testing.T) {
	g, err := Delaunay(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{GPMetis, Metis, MtMetis, ParMetis, PTScotch, Gmetis, Jostle, Spectral} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			res, err := Partition(g, 16, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Part) != g.NumVertices() {
				t.Fatalf("partition vector has %d entries", len(res.Part))
			}
			if res.EdgeCut != EdgeCut(g, res.Part) {
				t.Error("EdgeCut field disagrees with recomputation")
			}
			if res.ModeledSeconds <= 0 {
				t.Error("modeled runtime must be positive")
			}
			if imb := Imbalance(g, res.Part, 16); imb > 1.2 {
				t.Errorf("imbalance %.3f too high", imb)
			}
		})
	}
}

// oracleGraphs are the adversarial shapes of the partition oracle, 12
// vertices each.
func oracleGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	const n = 12
	build := func(edges func(add func(u, v int))) *Graph {
		b := NewBuilder(n)
		edges(func(u, v int) {
			if err := b.AddEdge(u, v, 1); err != nil {
				t.Fatal(err)
			}
		})
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	path := func(add func(u, v int), lo, hi int) {
		for v := lo; v+1 < hi; v++ {
			add(v, v+1)
		}
	}
	return map[string]*Graph{
		"disconnected": build(func(add func(u, v int)) { path(add, 0, n/2); path(add, n/2, n) }),
		"isolated":     build(func(add func(u, v int)) { path(add, 0, n/3) }),
		"star": build(func(add func(u, v int)) {
			for v := 1; v < n; v++ {
				add(0, v)
			}
		}),
		"clique": build(func(add func(u, v int)) {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					add(u, v)
				}
			}
		}),
		"path": build(func(add func(u, v int)) { path(add, 0, n) }),
	}
}

// familyGraphs returns the generator families at oracle scale: the
// ldoor, Delaunay, hugebubble and road stand-ins at 3,000 vertices and
// an RMAT graph of 2^11 vertices.
func familyGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	out := map[string]*Graph{}
	for name, mk := range map[string]func() (*Graph, error){
		"ldoor":      func() (*Graph, error) { return LDoor(3000, 1) },
		"delaunay":   func() (*Graph, error) { return Delaunay(3000, 1) },
		"hugebubble": func() (*Graph, error) { return HugeBubble(3000, 1) },
		"road":       func() (*Graph, error) { return RoadNetwork(3000, 1) },
		"rmat":       func() (*Graph, error) { return RMAT(11, 8, 1) },
	} {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// TestPartitionOracle checks the partitioner's contract for all eight
// algorithms, on adversarial 12-vertex graphs at k=1 and k=n and on the
// generator families at k=2, 16 and 64: a run either fails with one of
// the exported typed errors or returns a part id in [0,k) for every
// vertex, no empty part, imbalance within the default 3%, and an
// EdgeCut equal to the recomputed cut. On the 12-vertex graphs a repeat
// run with the same seed must reproduce the Part exactly.
func TestPartitionOracle(t *testing.T) {
	type oracleCase struct {
		g      *Graph
		ks     []int
		repeat bool
	}
	cases := map[string]oracleCase{}
	for name, g := range oracleGraphs(t) {
		cases[name] = oracleCase{g, []int{1, g.NumVertices()}, true}
	}
	for name, g := range familyGraphs(t) {
		cases[name] = oracleCase{g, []int{2, 16, 64}, false}
	}
	typed := []error{ErrBadK, ErrBadImbalance, ErrEmptyGraph, ErrBadOption, ErrGraphTooLarge}
	for name, c := range cases {
		g := c.g
		for _, k := range c.ks {
			for _, algo := range []Algorithm{GPMetis, Metis, MtMetis, ParMetis, PTScotch, Gmetis, Jostle, Spectral} {
				t.Run(fmt.Sprintf("%s/k=%d/%s", name, k, algo), func(t *testing.T) {
					o := Options{Algorithm: algo, Seed: 3}
					res, err := Partition(g, k, o)
					if err != nil {
						if !slices.ContainsFunc(typed, func(e error) bool { return errors.Is(err, e) }) {
							t.Fatalf("untyped error: %v", err)
						}
						return
					}
					if len(res.Part) != g.NumVertices() {
						t.Fatalf("partition vector has %d entries, want %d", len(res.Part), g.NumVertices())
					}
					if err := graph.VerifyPartition(g, res.Part, k, 1.03); err != nil {
						t.Fatal(err)
					}
					if cut := EdgeCut(g, res.Part); res.EdgeCut != cut {
						t.Errorf("EdgeCut %d, recomputed %d", res.EdgeCut, cut)
					}
					if !c.repeat {
						return
					}
					again, err := Partition(g, k, o)
					if err != nil {
						t.Fatalf("repeat run failed: %v", err)
					}
					if !slices.Equal(again.Part, res.Part) {
						t.Errorf("repeat run with the same seed changed the partition:\n%v\n%v", res.Part, again.Part)
					}
				})
			}
		}
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	g, err := Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Zero options: GP-metis, seed 1, 3% imbalance.
	res, err := Partition(g, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Partition(g, 4, Options{Seed: 1, UBFactor: 1.03, Algorithm: GPMetis})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != res2.EdgeCut {
		t.Error("zero options should equal explicit paper defaults")
	}
	if _, err := Partition(g, 4, Options{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestPublicAPIGraphRoundTrip(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 2 || h.EdgeWeight(0, 1) != 2 {
		t.Error("round trip lost data")
	}
}

func TestPublicMachineOverride(t *testing.T) {
	g, err := Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultMachine()
	fast.CPU.Cores = 8
	fast.CPU.ClockHz *= 4
	slow := DefaultMachine()
	rFast, err := Partition(g, 4, Options{Algorithm: Metis, Machine: fast})
	if err != nil {
		t.Fatal(err)
	}
	rSlow, err := Partition(g, 4, Options{Algorithm: Metis, Machine: slow})
	if err != nil {
		t.Fatal(err)
	}
	if rFast.ModeledSeconds >= rSlow.ModeledSeconds {
		t.Error("a faster modeled CPU must lower the modeled runtime")
	}
}

func TestMultiGPUThroughPublicAPI(t *testing.T) {
	g, err := Delaunay(20000, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	m.GPU.GlobalMemBytes = g.Bytes()/2 + 4096 // one device cannot hold it
	if _, err := Partition(g, 8, Options{Machine: m}); err == nil {
		t.Fatal("single device should refuse an oversized graph")
	}
	res, err := Partition(g, 8, Options{Machine: m, Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Part) != g.NumVertices() {
		t.Error("multi-GPU partition incomplete")
	}
	if imb := Imbalance(g, res.Part, 8); imb > 1.15 {
		t.Errorf("imbalance %.3f", imb)
	}
}

func TestAlgorithmNames(t *testing.T) {
	names := map[Algorithm]string{
		GPMetis: "GP-metis", Metis: "Metis", MtMetis: "mt-metis",
		ParMetis: "ParMetis", PTScotch: "PT-Scotch", Gmetis: "Gmetis",
		Jostle: "Jostle", Spectral: "Spectral",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestPublicAPIProfile(t *testing.T) {
	g, err := Delaunay(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// GPUThreshold lowered so a test-sized graph still launches kernels.
	res, err := Partition(g, 8, Options{Profile: true, GPUThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("Profile: true produced no Result.Profile")
	}
	if len(res.Profile.Kernels) == 0 {
		t.Fatal("profile has no kernels")
	}
	if res.Profile.KernelSeconds != res.Profile.GPUTimelineSeconds {
		t.Errorf("profile does not reconcile: kernels %v vs timeline %v",
			res.Profile.KernelSeconds, res.Profile.GPUTimelineSeconds)
	}
	var buf bytes.Buffer
	if err := res.Profile.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || res.Profile.Table(5) == "" {
		t.Error("empty profile export")
	}

	// Profiling must not perturb the partition itself.
	plain, err := Partition(g, 8, Options{GPUThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	if plain.EdgeCut != res.EdgeCut || plain.ModeledSeconds != res.ModeledSeconds {
		t.Errorf("profiling changed the run: cut %d/%d, seconds %v/%v",
			plain.EdgeCut, res.EdgeCut, plain.ModeledSeconds, res.ModeledSeconds)
	}
	if plain.Profile != nil {
		t.Error("unprofiled run carries a profile")
	}
}
