package gpu

import (
	"math/rand"
	"strings"
	"testing"
)

// fpAccess is one fixed access of a synthetic kernel: a Load when n is
// zero, else a LoadN of n elements.
type fpAccess struct {
	arr, i, n int
}

// fpThread is one thread of a synthetic kernel: fixed accesses before its
// first Converge, then one list of fixed accesses per iteration.
type fpThread struct {
	pre   []fpAccess
	iters [][]fpAccess
}

// fpProgram is a synthetic kernel whose fixed accesses are drawn once and
// whose dynamic accesses are drawn anew for every launch.
type fpProgram struct {
	threads []fpThread
	// gap spaces the Converge indices of consecutive iterations.
	gap int
	// dynPerIter is the footprint's declared dynamic bound.
	dynPerIter int
	// fixedLen is the length of each fixed array, dynLen of each dynamic.
	fixedLen, dynLen int
}

// fixedCounts are the per-iteration fixed access counts the generator
// draws from: seven small ones, then ones that fill convergeStride up to
// and past the declared dynamic bound, and one that overflows it alone.
var fixedCounts = []int{0, 1, 2, 3, 5, 8, 20, convergeStride - 4, convergeStride - 3, convergeStride - 2,
	convergeStride - 1, convergeStride, convergeStride + 7}

func newFPProgram(rng *rand.Rand) *fpProgram {
	p := &fpProgram{
		threads:    make([]fpThread, 1+rng.Intn(150)),
		gap:        1 + rng.Intn(2),
		dynPerIter: rng.Intn(4),
		fixedLen:   4096,
		dynLen:     512,
	}
	// access draws one fixed access; only small iterations draw scans, so
	// a long iteration's access indices are its access count.
	access := func(tid int, scan bool) fpAccess {
		a := fpAccess{arr: rng.Intn(2)}
		kinds := 3
		if scan {
			kinds = 4
		}
		switch rng.Intn(kinds) {
		case 0: // every lane on one segment
			a.i = rng.Intn(8)
		case 1: // consecutive lanes on consecutive elements
			a.i = tid
		case 2:
			a.i = rng.Intn(p.fixedLen - 200)
		default: // a scan that may span several segments
			a.i = rng.Intn(p.fixedLen - 200)
			a.n = 1 + rng.Intn(100)
		}
		return a
	}
	// Rare long iterations keep most warps safe.
	big := rng.Intn(3) == 0
	for tid := range p.threads {
		th := &p.threads[tid]
		if rng.Intn(4) == 0 {
			for j := rng.Intn(4); j > 0; j-- {
				th.pre = append(th.pre, access(tid, true))
			}
		}
		th.iters = make([][]fpAccess, rng.Intn(5))
		for j := range th.iters {
			m, long := fixedCounts[rng.Intn(7)], false
			if big && rng.Intn(10) == 0 {
				m, long = fixedCounts[7+rng.Intn(len(fixedCounts)-7)], true
			}
			for ; m > 0; m-- {
				th.iters[j] = append(th.iters[j], access(tid, !long))
			}
		}
	}
	return p
}

// mix is splitmix64: it draws a thread's dynamic accesses from its launch,
// thread and iteration without a generator per thread.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// kernel returns the program's kernel for one launch. With fixed set it
// makes the fixed accesses through LoadFixed and LoadNFixed, else through
// Load and LoadN. Each iteration then makes up to dynPerIter dynamic
// access indices drawn from the launch's seed: atomics on a few hot
// elements, stores, and loads that may span two segments.
func (p *fpProgram) kernel(fixedArrs, dynArrs [2]Array, seed uint64, fixed bool) Kernel {
	load := func(c *Ctx, a fpAccess) {
		arr := fixedArrs[a.arr]
		switch {
		case a.n > 0 && fixed:
			c.LoadNFixed(arr, a.i, a.n)
		case a.n > 0:
			c.LoadN(arr, a.i, a.n)
		case fixed:
			c.LoadFixed(arr, a.i)
		default:
			c.Load(arr, a.i)
		}
	}
	return func(c *Ctx) {
		th := &p.threads[c.TID()]
		for _, a := range th.pre {
			load(c, a)
		}
		for j, iter := range th.iters {
			c.Converge(j * p.gap)
			for _, a := range iter {
				load(c, a)
			}
			r := mix(seed ^ uint64(c.TID())<<20 ^ uint64(j))
			budget := int(r % uint64(p.dynPerIter+1))
			for budget > 0 {
				r = mix(r)
				switch r % 3 {
				case 0:
					c.Atomic(dynArrs[0], int(r>>8%4))
					budget--
				case 1:
					c.Store(dynArrs[1], int(r>>8%uint64(p.dynLen)))
					budget--
				default:
					// Elements 30..33 of 4 bytes span two 128-byte
					// segments: two access indices.
					if budget < 2 {
						continue
					}
					c.LoadN(dynArrs[1], 30, 4)
					budget -= 2
				}
			}
			c.Op(1)
		}
	}
}

// fpDevice returns a device with the program's arrays: the two fixed
// arrays first, then the two dynamic ones.
func fpDevice(t *testing.T, p *fpProgram, accounting bool) (d *Device, fixedArrs, dynArrs [2]Array) {
	t.Helper()
	d, _ = newTestDevice()
	d.Accounting = accounting
	var err error
	for i, elem := range []int{4, 8} {
		if fixedArrs[i], err = d.Malloc(p.fixedLen, elem); err != nil {
			t.Fatal(err)
		}
	}
	for i := range dynArrs {
		if dynArrs[i], err = d.Malloc(p.dynLen, 4); err != nil {
			t.Fatal(err)
		}
	}
	return d, fixedArrs, dynArrs
}

// TestFootprintReplayMatchesLaunch runs random synthetic kernels two ways:
// with plain loads under Launch, and through one footprint recorded by the
// first LaunchFootprint and replayed by later ones whose dynamic accesses
// differ. Every launch must charge the same seconds and the same
// gpu.Stats. The kernels have scans spanning segments, hot atomics landing
// at access indices where other lanes' fixed loads share a segment,
// iterations that overflow convergeStride (unsafe warps), iterations that
// overflow it only at the dynamic bound, and Accounting off.
func TestFootprintReplayMatchesLaunch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var replayed, unsafe, merged int
	for prog := 0; prog < 300; prog++ {
		p := newFPProgram(rng)
		accounting := prog%10 != 9
		dPlain, fa, da := fpDevice(t, p, accounting)
		dFP, _, _ := fpDevice(t, p, accounting)
		fp := NewFootprint(p.dynPerIter)
		n := len(p.threads)
		for launch := 0; launch < 5; launch++ {
			seed := rng.Uint64()
			want := dPlain.Launch("plain", n, p.kernel(fa, da, seed, false))
			got := dFP.LaunchFootprint("fp", n, fp, p.kernel(fa, da, seed, true))
			if got != want {
				t.Fatalf("program %d launch %d: %v seconds, plain launch %v", prog, launch, got, want)
			}
			if gs, ws := dFP.Stats(), dPlain.Stats(); gs != ws {
				t.Fatalf("program %d launch %d: stats %+v, plain launch %+v", prog, launch, gs, ws)
			}
		}
		if fp.recorded != accounting {
			t.Fatalf("program %d: footprint recorded=%v with Accounting=%v", prog, fp.recorded, accounting)
		}
		if !fp.recorded {
			continue
		}
		replayed++
		for _, w := range fp.warps {
			if !w.safe {
				unsafe++
			}
		}
		for _, mc := range fp.maxCount {
			if mc > 1 {
				merged++
				break
			}
		}
	}
	// The generator must reach both warp kinds and shared segments, or the
	// comparison above proves nothing about them.
	if replayed == 0 || unsafe == 0 || merged == 0 {
		t.Fatalf("generator coverage: %d recorded programs, %d unsafe warps, %d programs with shared fixed segments",
			replayed, unsafe, merged)
	}
}

// TestFootprintContract checks that each breach of the footprint contract
// panics rather than replaying wrong charges.
func TestFootprintContract(t *testing.T) {
	type setup struct {
		d              *Device
		fixed, dynamic Array
	}
	newSetup := func(t *testing.T) setup {
		d, _ := newTestDevice()
		f, err := d.Malloc(1024, 4)
		if err != nil {
			t.Fatal(err)
		}
		dy, err := d.Malloc(1024, 4)
		if err != nil {
			t.Fatal(err)
		}
		return setup{d, f, dy}
	}
	ok := func(s setup) Kernel {
		return func(c *Ctx) {
			c.Converge(0)
			c.LoadFixed(s.fixed, c.TID())
			c.Atomic(s.dynamic, 0)
		}
	}
	cases := []struct {
		name, want string
		run        func(s setup)
	}{
		{"fixed after dynamic", "fixed access after a dynamic one", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(2), func(c *Ctx) {
				c.Converge(0)
				c.Atomic(s.dynamic, 0)
				c.LoadFixed(s.fixed, c.TID())
			})
		}},
		{"fixed scan after dynamic", "fixed access after a dynamic one", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(2), func(c *Ctx) {
				c.Converge(0)
				c.Store(s.dynamic, 0)
				c.LoadNFixed(s.fixed, c.TID(), 3)
			})
		}},
		{"dynamic bound", "dynamic accesses in one iteration", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(1), func(c *Ctx) {
				c.Converge(0)
				c.Atomic(s.dynamic, 0)
				c.Store(s.dynamic, 1)
			})
		}},
		{"dynamic scan bound", "dynamic accesses in one iteration", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(1), func(c *Ctx) {
				c.Converge(0)
				c.LoadN(s.dynamic, 30, 4) // two segments
			})
		}},
		{"dynamic bound on replay", "dynamic accesses in one iteration", func(s setup) {
			fp := NewFootprint(1)
			s.d.LaunchFootprint("k", 32, fp, ok(s))
			s.d.LaunchFootprint("k", 32, fp, func(c *Ctx) {
				c.Converge(0)
				c.LoadFixed(s.fixed, c.TID())
				c.Atomic(s.dynamic, 0)
				c.Atomic(s.dynamic, 1)
			})
		}},
		{"dynamic before first Converge", "before the first Converge", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(2), func(c *Ctx) {
				c.Atomic(s.dynamic, 0)
				c.Converge(0)
				c.LoadFixed(s.fixed, c.TID())
			})
		}},
		{"array of both kinds", "both fixed and dynamic", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(2), func(c *Ctx) {
				c.Converge(0)
				c.LoadFixed(s.fixed, c.TID())
				c.Store(s.fixed, c.TID())
			})
		}},
		{"array of both kinds across lanes", "both fixed and dynamic", func(s setup) {
			s.d.LaunchFootprint("k", 32, NewFootprint(2), func(c *Ctx) {
				c.Converge(0)
				if c.Lane() == 0 {
					c.Store(s.fixed, 0)
				} else {
					c.LoadFixed(s.fixed, c.TID())
				}
			})
		}},
		{"array of both kinds on replay", "both fixed and dynamic", func(s setup) {
			fp := NewFootprint(2)
			s.d.LaunchFootprint("k", 32, fp, ok(s))
			s.d.LaunchFootprint("k", 32, fp, func(c *Ctx) {
				c.Converge(0)
				c.LoadFixed(s.fixed, c.TID())
				c.Atomic(s.fixed, 0)
			})
		}},
		{"thread count", "recorded for 32 threads", func(s setup) {
			fp := NewFootprint(2)
			s.d.LaunchFootprint("k", 32, fp, ok(s))
			s.d.LaunchFootprint("k", 64, fp, ok(s))
		}},
		{"fixed access count", "fixed accesses, recorded", func(s setup) {
			fp := NewFootprint(2)
			s.d.LaunchFootprint("k", 32, fp, ok(s))
			s.d.LaunchFootprint("k", 32, fp, func(c *Ctx) {
				c.Converge(0)
				c.LoadNFixed(s.fixed, c.TID(), 2)
			})
		}},
		{"negative bound", "negative dynamic bound", func(s setup) { NewFootprint(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if r == nil || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			tc.run(newSetup(t))
		})
	}
}

// TestFootprintIgnoredWithoutAccounting checks that a launch with
// Accounting off neither records nor replays: a footprint used first
// there is recorded by the first accounted launch instead.
func TestFootprintIgnoredWithoutAccounting(t *testing.T) {
	d, _ := newTestDevice()
	a, err := d.Malloc(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	fp := NewFootprint(0)
	k := func(c *Ctx) {
		c.Converge(0)
		c.LoadFixed(a, c.TID())
	}
	d.Accounting = false
	d.LaunchFootprint("k", 64, fp, k)
	if fp.recorded {
		t.Fatal("a launch without accounting recorded the footprint")
	}
	d.Accounting = true
	d.LaunchFootprint("k", 64, fp, k)
	d.LaunchFootprint("k", 64, fp, k)
	// Each launch reads 256 contiguous bytes: two transactions.
	if got := d.Stats().Transactions; !fp.recorded || got != 4 {
		t.Fatalf("recorded=%v, %d transactions over two launches, want 4", fp.recorded, got)
	}
}
