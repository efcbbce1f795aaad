package core

import (
	"testing"

	"gpmetis/internal/graph/gen"
	"gpmetis/internal/perfmodel"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// partitionAllocs is the heap allocation count of one Partition call per
// input family at 1/400 scale, k=64, GPUThreshold 4096 (the
// BenchmarkGPMetisPipeline configuration), as measured with go1.24.0.
var partitionAllocs = map[string]float64{
	"ldoor":      299,
	"delaunay":   166,
	"hugebubble": 4113,
	"usa-roads":  3984,
}

// TestPartitionAllocsBounded gates the pipeline's allocation count: each
// family may allocate at most 1.5x its recorded count per call, so a
// per-vertex or per-level allocation slipping back into a hot path fails
// here instead of surfacing as a slower benchmark.
func TestPartitionAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes these runs ~15x slower and perturbs the counts; the plain test run gates allocations")
	}
	m := perfmodel.Default()
	for _, cls := range gen.Classes() {
		want, ok := partitionAllocs[cls.String()]
		if !ok {
			t.Fatalf("no recorded allocation count for family %s", cls)
		}
		g, err := gen.TableI(cls, 400, 1)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.GPUThreshold = 4096
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Partition(g, 64, o, m); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 1.5 * want; allocs > limit {
			t.Errorf("%s: Partition made %v allocations per call, over the bound %v (1.5x the recorded %v)",
				cls, allocs, limit, want)
		}
	}
}
