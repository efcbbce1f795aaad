package gpu

import (
	"math/rand"
	"testing"

	"gpmetis/internal/perfmodel"
)

// TestLaunchAllocsIndependentOfThreads guards the per-thread hot path:
// Launch reuses one Ctx for every thread, so a launch of 65,536 threads
// allocates no more than a launch of one.
func TestLaunchAllocsIndependentOfThreads(t *testing.T) {
	d, _ := newTestDevice()
	const big = 1 << 16
	a, err := d.Malloc(big, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, big)
	kernel := func(c *Ctx) {
		c.Load(a, c.TID())
		data[c.TID()]++
		c.Op(1)
		c.Store(a, c.TID())
	}
	launch := func(n int) func() { return func() { d.Launch("stream", n, kernel) } }
	one := testing.AllocsPerRun(20, launch(1))
	many := testing.AllocsPerRun(20, launch(big))
	if many > one+1 {
		t.Errorf("Launch allocations grow with threads: %v for 1 thread, %v for %d", one, many, big)
	}
}

// TestCtxResetPerThread checks the reused Ctx: every thread sees its own
// TID and lane, and its instruction count starts from zero.
func TestCtxResetPerThread(t *testing.T) {
	d, _ := newTestDevice()
	const n = 100
	ws := d.Machine().GPU.WarpSize
	seen := make([]int, n)
	d.Launch("ids", n, func(c *Ctx) {
		if c.Lane() != c.TID()%ws {
			t.Errorf("thread %d: lane %d, want %d", c.TID(), c.Lane(), c.TID()%ws)
		}
		seen[c.TID()]++
		c.Op(c.TID() % 7)
	})
	var lane, warp int64
	for base := 0; base < n; base += ws {
		var mx int64
		for tid := base; tid < base+ws && tid < n; tid++ {
			if seen[tid] != 1 {
				t.Errorf("thread %d ran %d times", tid, seen[tid])
			}
			ops := int64(tid % 7)
			lane += ops
			if ops > mx {
				mx = ops
			}
		}
		warp += mx
	}
	st := d.Stats()
	if st.LaneInstructions != lane || st.WarpInstructions != warp {
		t.Errorf("instructions lane=%d warp=%d, want lane=%d warp=%d",
			st.LaneInstructions, st.WarpInstructions, lane, warp)
	}
}

// TestSegmentShiftMatchesDivision checks the segment rule: a shift for a
// power-of-two transaction size and a division otherwise give the same
// segment for every non-negative offset.
func TestSegmentShiftMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tb := range []int{1, 32, 64, 128, 96, 100} {
		w := newWarpState(tb)
		if pow2 := tb&(tb-1) == 0; pow2 != (w.segShift >= 0) {
			t.Errorf("TransactionBytes %d: segShift %d", tb, w.segShift)
		}
		for i := 0; i < 1000; i++ {
			off := rng.Int63n(1 << 40)
			if got, want := w.segment(off), off/int64(tb); got != want {
				t.Fatalf("TransactionBytes %d: segment(%d) = %d, want %d", tb, off, got, want)
			}
		}
	}
}

// TestNonPowerOfTwoTransactionBytes runs the division path end to end: 24
// threads loading consecutive 4-byte elements span 96 bytes, one segment
// of a 96-byte transaction and one of a 128-byte transaction.
func TestNonPowerOfTwoTransactionBytes(t *testing.T) {
	for _, tc := range []struct{ tb, wantTx int64 }{{96, 1}, {128, 1}, {48, 2}} {
		m := perfmodel.Default()
		m.GPU.TransactionBytes = int(tc.tb)
		d := NewDevice(m, &perfmodel.Timeline{})
		a, err := d.Malloc(24, 4)
		if err != nil {
			t.Fatal(err)
		}
		d.Launch("load", 24, func(c *Ctx) { c.Load(a, c.TID()) })
		if got := d.Stats().Transactions; got != tc.wantTx {
			t.Errorf("TransactionBytes %d: %d transactions, want %d", tc.tb, got, tc.wantTx)
		}
	}
}

// refSlot is the plain coalescing table: a linear scan over the distinct
// segments in insertion order, with no filter.
type refSlot struct {
	segs   []int64
	count  []int32
	atomic bool
}

func (r *refSlot) add(seg int64) {
	for i, s := range r.segs {
		if s == seg {
			r.count[i]++
			return
		}
	}
	r.segs = append(r.segs, seg)
	r.count = append(r.count, 1)
}

func (r *refSlot) maxCount() int64 {
	var m int32
	for _, c := range r.count {
		m = max(m, c)
	}
	return int64(m)
}

// collidingKey returns a key other than key with the same filter bit.
func collidingKey(rng *rand.Rand, key int64) int64 {
	for {
		c := rng.Int63n(1 << 48)
		if c != key && filterHash(c) == filterHash(key) {
			return c
		}
	}
}

// checkSlot compares a filtered slot with the reference scan.
func checkSlot(t *testing.T, round int, s *segSlot, ref *refSlot) {
	t.Helper()
	if s.n != len(ref.segs) || s.atomic != ref.atomic {
		t.Fatalf("round %d: n=%d atomic=%v, reference n=%d atomic=%v", round, s.n, s.atomic, len(ref.segs), ref.atomic)
	}
	for i := range ref.segs {
		if s.segs[i] != ref.segs[i] || s.count[i] != ref.count[i] {
			t.Fatalf("round %d entry %d: seg %d count %d, reference seg %d count %d",
				round, i, s.segs[i], s.count[i], ref.segs[i], ref.count[i])
		}
	}
	if got, want := s.maxCount(), ref.maxCount(); got != want {
		t.Fatalf("round %d: maxCount %d, reference %d", round, got, want)
	}
}

// TestSegSlotMatchesReferenceScan feeds random keys through the filtered
// addSeg/addAddr: repeats of keys already present, fresh keys that share
// a filter bit with a present one, and fresh random keys. Every slot must
// hold the same segments, counts and maxCount as the reference scan, and
// a slot reused after warpState.reset must hold nothing from before.
func TestSegSlotMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWarpState(128)
	const slots = 4
	for round := 0; round < 500; round++ {
		w.reset()
		refs := make([]refSlot, slots)
		for seq := 0; seq < slots; seq++ {
			s, ref := w.slot(seq), &refs[seq]
			if s.n != 0 || s.atomic || s.filter != 0 {
				t.Fatalf("round %d slot %d after reset: n=%d atomic=%v filter=%#x", round, seq, s.n, s.atomic, s.filter)
			}
			atomic := rng.Intn(2) == 0
			// A warp's lanes add at most MaxWarpSize keys to one slot.
			for lane := 0; lane < perfmodel.MaxWarpSize; lane++ {
				var key int64
				switch r := rng.Intn(3); {
				case r == 0 && len(ref.segs) > 0:
					key = ref.segs[rng.Intn(len(ref.segs))]
				case r == 1 && len(ref.segs) > 0:
					key = collidingKey(rng, ref.segs[rng.Intn(len(ref.segs))])
				default:
					key = rng.Int63n(1 << 48)
				}
				if atomic {
					s.addAddr(key)
					ref.atomic = true
				} else {
					s.addSeg(key)
				}
				ref.add(key)
			}
			checkSlot(t, round, s, ref)
		}
	}
	// Re-adding a key held before the reset must start a new entry.
	w.reset()
	s := w.slot(0)
	s.addSeg(42)
	s.addSeg(42)
	w.reset()
	s = w.slot(0)
	s.addSeg(42)
	checkSlot(t, -1, s, &refSlot{segs: []int64{42}, count: []int32{1}})
}
