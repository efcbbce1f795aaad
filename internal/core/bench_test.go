package core

import (
	"testing"

	"gpmetis/internal/gpu"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/perfmodel"
)

// BenchmarkContractionMergeHash and ...Sort back DESIGN.md's ablation A1
// at micro scale: the full GP-metis pipeline under each merge strategy.
func BenchmarkContractionMergeHash(b *testing.B) { benchMerge(b, HashMerge) }

// BenchmarkContractionMergeSort is the sort-merge counterpart.
func BenchmarkContractionMergeSort(b *testing.B) { benchMerge(b, SortMerge) }

func benchMerge(b *testing.B, merge MergeStrategy) {
	g, err := gen.Delaunay(30_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := perfmodel.Default()
	o := DefaultOptions()
	o.GPUThreshold = 2048
	o.Merge = merge
	var modeled float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Partition(g, 16, o, m)
		if err != nil {
			b.Fatal(err)
		}
		modeled = r.ModeledSeconds()
	}
	b.ReportMetric(modeled, "modeled-s")
}

// BenchmarkGPMetisPipeline measures the full hybrid pipeline on each
// input family at reduced size.
func BenchmarkGPMetisPipeline(b *testing.B) {
	m := perfmodel.Default()
	for _, cls := range gen.Classes() {
		b.Run(cls.String(), func(b *testing.B) {
			g, err := gen.TableI(cls, 400, 1)
			if err != nil {
				b.Fatal(err)
			}
			o := DefaultOptions()
			o.GPUThreshold = 4096
			var modeled float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Partition(g, 64, o, m)
				if err != nil {
					b.Fatal(err)
				}
				modeled = r.ModeledSeconds()
			}
			b.ReportMetric(modeled, "modeled-s")
		})
	}
}

// BenchmarkMatchingKernels isolates the GPU matching + conflict
// resolution step.
func BenchmarkMatchingKernels(b *testing.B) {
	g, err := gen.Delaunay(50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := perfmodel.Default()
	o := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := &perfmodel.Timeline{}
		d := gpu.NewDevice(m, tl)
		dg, err := allocGraph(d, g)
		if err != nil {
			b.Fatal(err)
		}
		matchArr, err := d.Malloc(g.NumVertices(), 4)
		if err != nil {
			b.Fatal(err)
		}
		matchKernels(d, dg, o, 0, matchArr)
	}
}

// BenchmarkGPMetisLdoor40 runs the pipeline-ldoor call of perfbench: the
// ldoor stand-in at 1/40 scale (the perf baseline's input) partitioned
// into 64 parts with DefaultOptions at seed 1. `make bench-hot` runs it
// with -benchmem, so per-call allocation figures come from this command.
func BenchmarkGPMetisLdoor40(b *testing.B) {
	g, err := gen.TableI(gen.ClassLDoor, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := perfmodel.Default()
	o := DefaultOptions()
	var modeled float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Partition(g, 64, o, m)
		if err != nil {
			b.Fatal(err)
		}
		modeled = r.ModeledSeconds()
	}
	b.ReportMetric(modeled, "modeled-s")
}
