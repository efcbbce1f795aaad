package mtmetis

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"gpmetis/internal/graph/gen"
	"gpmetis/internal/metis"
	"gpmetis/internal/perfmodel"
)

// TestSortByGainMatchesSortSlice pins the order of equal gains: Refine
// commits moves in buffer order, so sortByGain must leave every buffer in
// the permutation sort.Slice with the same comparator leaves it in, which
// an unstable sort does not promise. Buffers hold many equal gains and
// have every length from 0 to 300.
func TestSortByGainMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 300; n++ {
		for _, gains := range []int{1, 3, 10, 1000} {
			buf := make([]moveReq, n)
			for i := range buf {
				buf[i] = moveReq{v: i, from: rng.Intn(8), gain: 1 + rng.Intn(gains)}
			}
			rng.Shuffle(n, func(i, j int) { buf[i], buf[j] = buf[j], buf[i] })
			want := append([]moveReq(nil), buf...)
			sort.Slice(want, func(i, j int) bool { return want[i].gain > want[j].gain })
			sortByGain(buf)
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("length %d, %d distinct gains: entry %d is %+v, sort.Slice gives %+v", n, gains, i, buf[i], want[i])
				}
			}
		}
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestInitialPartitionAllocsBounded guards the shared workspace of the
// initial partitioning tries: Threads recursive bisections of the
// coarsest graph allocate less than twice what one RecursiveBisect does,
// and a fixed handful of times, not a workspace per try.
func TestInitialPartitionAllocsBounded(t *testing.T) {
	g, err := gen.TableI(gen.ClassLDoor, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	m := perfmodel.Default()
	run := func() { initialPartition(g, 64, o, m, &perfmodel.Timeline{}) }
	one := allocBytes(func() { metis.RecursiveBisect(g, 64, o.UBFactor, rand.New(rand.NewSource(1)), nil) })
	if all := allocBytes(run); all >= 2*one {
		t.Errorf("initialPartition with %d tries allocated %d bytes, one RecursiveBisect %d", o.Threads, all, one)
	}
	if allocs := testing.AllocsPerRun(3, run); allocs > 50 {
		t.Errorf("initialPartition allocated %v times per call, want at most 50", allocs)
	}
}
