package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"gpmetis/internal/gpu"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/mtmetis"
	"gpmetis/internal/perfmodel"
)

// goldenCase pins one run's outputs bit for bit: the simulator's host-side
// optimizations must never move a partition, a cut, the modeled clock, or
// the device counters.
type goldenCase struct {
	name  string
	class gen.Class
	algo  string // "gp" or "mt"
	// threshold overrides GPUThreshold when non-zero, so a small input
	// still runs GPU levels.
	threshold int
	// maxThreads overrides MaxThreads when non-zero, so each thread owns
	// several vertices and the kernels run several converged iterations.
	maxThreads int
	// hub, when non-zero, prepends one vertex adjacent to hub evenly
	// spaced vertices of the generated graph: its refine scan overflows
	// a converged iteration's access budget and shifts the accesses of
	// every later iteration of its thread.
	hub int

	partSHA     string // SHA-256 of Part as little-endian int64s
	cut         int
	modeledBits uint64 // math.Float64bits(ModeledSeconds)
	timelineSHA string // SHA-256 over every phase's name, location and seconds bits
	stats       gpu.Stats
}

var goldenCases = []goldenCase{
	{
		name: "gp/ldoor", class: gen.ClassLDoor, algo: "gp", threshold: 256,
		partSHA:     "a4bdc10b300eb9b574434ecd3c571c50edf0609cb2f80efcf10ace72dd8fd4c2",
		cut:         29184,
		modeledBits: 0x3fc3c90ee03db6dc,
		timelineSHA: "c88e6f97def1cc7b3adb958b97a44d757d74e0fbb22d432f13f9d94ec6388e38",
		stats: gpu.Stats{Kernels: 152, Threads: 139410, WarpInstructions: 755931,
			LaneInstructions: 16565549, Transactions: 1985100, Accesses: 11082173,
			AtomicOps: 937, AtomicSerial: 4423, BytesToDevice: 909936, BytesToHost: 593020},
	},
	{
		name: "gp/usa-roads", class: gen.ClassRoadNetwork, algo: "gp",
		partSHA:     "e9fadc09dbc2d3bfd6adcacfde1fde0c7d64ff013e226c39d02321f281dfe771",
		cut:         2052,
		modeledBits: 0x3fa0ce40871d4639,
		timelineSHA: "817a08b13281f9d9d1d11ad607d2db7cf763a2eb0367fdc6d378a29716a0ef0c",
		stats: gpu.Stats{Kernels: 196, Threads: 2436790, WarpInstructions: 929052,
			LaneInstructions: 20889938, Transactions: 1637487, Accesses: 14578688,
			AtomicOps: 17, AtomicSerial: 27, BytesToDevice: 1690368, BytesToHost: 752592},
	},
	{
		name: "mt/delaunay", class: gen.ClassDelaunay, algo: "mt",
		partSHA:     "6798b18c4ebb7b53e04cc34f6e2b051f53d38380720b8b6cc6ade23b40a4b081",
		cut:         1428,
		modeledBits: 0x3f94336b48a5c603,
		timelineSHA: "d0635a8b1e9e01d28370e8f418b8910a33fbec5f3bc8378049876c3fb3e1dfd4",
		// mt-metis launches no kernels: its device counters stay zero.
	},
	{
		name: "gp/delaunay-hub", class: gen.ClassDelaunay, algo: "gp",
		threshold: 1024, maxThreads: 256, hub: 300,
		partSHA:     "8ea906fd584e3bcdb52f3feb1f75733df524a42efb80efb9760a6cc6af0856e1",
		cut:         1757,
		modeledBits: 0x3f95ce50a9b5c31f,
		timelineSHA: "6cc58724b277c1435069e42c1b9f8b73b744bdc48d883150ea32ca0c9378f19e",
		stats: gpu.Stats{Kernels: 68, Threads: 9599, WarpInstructions: 59414,
			LaneInstructions: 1090426, Transactions: 252912, Accesses: 750891,
			AtomicOps: 65, AtomicSerial: 98, BytesToDevice: 156812, BytesToHost: 95292},
	},
}

// withHub returns g with one vertex prepended: vertex 0 is adjacent, with
// weight 1, to deg evenly spaced vertices of g, whose vertex v becomes
// v+1. As vertex 0 it falls in the first iteration of thread 0, so its
// overflow shifts that thread's later iterations.
func withHub(g *graph.Graph, deg int) (*graph.Graph, error) {
	n := g.NumVertices()
	b := graph.NewBuilder(n + 1)
	for v := 0; v < n; v++ {
		if err := b.SetVertexWeight(v+1, g.VWgt[v]); err != nil {
			return nil, err
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if v < u {
				if err := b.AddEdge(v+1, u+1, wgt[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := 0; i < deg; i++ {
		if err := b.AddEdge(0, 1+i*n/deg, 1); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

func hashPart(part []int) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range part {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(p)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashTimeline(tl *perfmodel.Timeline) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range tl.Phases() {
		h.Write([]byte(p.Name))
		h.Write([]byte{0, byte(p.Loc)})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.Seconds))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenBitIdentity runs GP-metis on the ldoor and usa-roads stand-ins
// and mt-metis on the delaunay stand-in, all at 1/400 scale with k=64 and
// seed 1, and compares every output against values captured before the
// simulator's hot paths were reworked.
func TestGoldenBitIdentity(t *testing.T) {
	const k, scaleDiv, seed = 64, 400, 1
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := gen.TableI(tc.class, scaleDiv, seed)
			if err != nil {
				t.Fatal(err)
			}
			if tc.hub != 0 {
				if g, err = withHub(g, tc.hub); err != nil {
					t.Fatal(err)
				}
			}
			var (
				part    []int
				cut     int
				modeled float64
				tl      *perfmodel.Timeline
				stats   gpu.Stats
			)
			switch tc.algo {
			case "gp":
				o := DefaultOptions()
				o.Seed = seed
				if tc.threshold != 0 {
					o.GPUThreshold = tc.threshold
				}
				if tc.maxThreads != 0 {
					o.MaxThreads = tc.maxThreads
				}
				res, err := Partition(g, k, o, perfmodel.Default())
				if err != nil {
					t.Fatal(err)
				}
				part, cut, modeled, tl, stats = res.Part, res.EdgeCut, res.ModeledSeconds(), &res.Timeline, res.KernelStats
				if res.GPULevels == 0 {
					t.Fatal("no GPU levels: the case would not exercise the kernels")
				}
			case "mt":
				o := mtmetis.DefaultOptions()
				o.Seed = seed
				res, err := mtmetis.Partition(g, k, o, perfmodel.Default())
				if err != nil {
					t.Fatal(err)
				}
				part, cut, modeled, tl = res.Part, res.EdgeCut, res.ModeledSeconds(), &res.Timeline
			}
			if cut != graph.EdgeCut(g, part) {
				t.Fatalf("reported cut %d != recomputed %d", cut, graph.EdgeCut(g, part))
			}
			got := goldenCase{
				partSHA:     hashPart(part),
				cut:         cut,
				modeledBits: math.Float64bits(modeled),
				timelineSHA: hashTimeline(tl),
				stats:       stats,
			}
			if got.partSHA != tc.partSHA {
				t.Errorf("Part SHA-256 = %s, want %s", got.partSHA, tc.partSHA)
			}
			if got.cut != tc.cut {
				t.Errorf("EdgeCut = %d, want %d", got.cut, tc.cut)
			}
			if got.modeledBits != tc.modeledBits {
				t.Errorf("ModeledSeconds bits = %#x (%v), want %#x (%v)",
					got.modeledBits, modeled, tc.modeledBits, math.Float64frombits(tc.modeledBits))
			}
			if got.timelineSHA != tc.timelineSHA {
				t.Errorf("Timeline SHA-256 = %s, want %s", got.timelineSHA, tc.timelineSHA)
			}
			if got.stats != tc.stats {
				t.Errorf("gpu.Stats = %+v, want %+v", got.stats, tc.stats)
			}
		})
	}
}
