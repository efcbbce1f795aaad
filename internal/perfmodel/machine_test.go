package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() should validate, got %v", err)
	}
}

// TestValidateWarpSizeBound: the kernel simulator's coalescing table has
// one entry per lane, so a wider warp would silently drop segments and
// undercount transactions. Validate accepts MaxWarpSize and rejects more.
func TestValidateWarpSizeBound(t *testing.T) {
	for _, ws := range []int{1, 16, MaxWarpSize} {
		m := Default()
		m.GPU.WarpSize = ws
		if err := m.Validate(); err != nil {
			t.Errorf("WarpSize %d: Validate() = %v, want nil", ws, err)
		}
	}
	for _, ws := range []int{MaxWarpSize + 1, 64} {
		m := Default()
		m.GPU.WarpSize = ws
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), "WarpSize") {
			t.Errorf("WarpSize %d: Validate() = %v, want a WarpSize error", ws, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"zero cores", func(m *Machine) { m.CPU.Cores = 0 }},
		{"negative cores", func(m *Machine) { m.CPU.Cores = -1 }},
		{"zero cpu clock", func(m *Machine) { m.CPU.ClockHz = 0 }},
		{"zero ipc", func(m *Machine) { m.CPU.IPC = 0 }},
		{"zero seq bw", func(m *Machine) { m.CPU.SeqBytesPerSec = 0 }},
		{"zero rand cost", func(m *Machine) { m.CPU.RandAccessSec = 0 }},
		{"zero SMs", func(m *Machine) { m.GPU.SMs = 0 }},
		{"zero warp", func(m *Machine) { m.GPU.WarpSize = 0 }},
		{"zero warp slots", func(m *Machine) { m.GPU.WarpSlotsPerSM = 0 }},
		{"zero gpu clock", func(m *Machine) { m.GPU.ClockHz = 0 }},
		{"zero gpu mem bw", func(m *Machine) { m.GPU.MemBytesPerSec = 0 }},
		{"zero transaction", func(m *Machine) { m.GPU.TransactionBytes = 0 }},
		{"zero gpu mem", func(m *Machine) { m.GPU.GlobalMemBytes = 0 }},
		{"zero pcie bw", func(m *Machine) { m.PCIe.BytesPerSec = 0 }},
		{"zero net bw", func(m *Machine) { m.Net.BytesPerSec = 0 }},
	}
	for _, tc := range cases {
		m := Default()
		tc.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() should fail", tc.name)
		}
	}
}

func TestCPUCostTerms(t *testing.T) {
	m := Default()
	if got := m.CPUOpSec(0); got != 0 {
		t.Errorf("CPUOpSec(0) = %g, want 0", got)
	}
	want := 1e9 / (m.CPU.ClockHz * m.CPU.IPC)
	if got := m.CPUOpSec(1e9); math.Abs(got-want) > 1e-12 {
		t.Errorf("CPUOpSec(1e9) = %g, want %g", got, want)
	}
	if got := m.CPURandSec(1000); math.Abs(got-1000*m.CPU.RandAccessSec) > 1e-15 {
		t.Errorf("CPURandSec(1000) = %g", got)
	}
	if got := m.CPUSeqSec(m.CPU.SeqBytesPerSec); math.Abs(got-1) > 1e-9 {
		t.Errorf("CPUSeqSec(full-bandwidth) = %g, want 1", got)
	}
}

func TestPCIeAndNetIncludeLatency(t *testing.T) {
	m := Default()
	if got := m.PCIeSec(0); got != m.PCIe.LatencySec {
		t.Errorf("PCIeSec(0) = %g, want latency %g", got, m.PCIe.LatencySec)
	}
	if got := m.NetMsgSec(0); got != m.Net.LatencySec {
		t.Errorf("NetMsgSec(0) = %g, want latency %g", got, m.Net.LatencySec)
	}
	if m.PCIeSec(1<<30) <= m.PCIeSec(1<<20) {
		t.Error("PCIeSec must grow with payload size")
	}
}

func TestThreadCostAddAndSeconds(t *testing.T) {
	m := Default()
	a := ThreadCost{Ops: 100, Rand: 10, SeqBytes: 1000, Atomics: 5}
	b := ThreadCost{Ops: 1, Rand: 2, SeqBytes: 3, Atomics: 4}
	a.Add(b)
	want := ThreadCost{Ops: 101, Rand: 12, SeqBytes: 1003, Atomics: 9}
	if a != want {
		t.Fatalf("Add: got %+v want %+v", a, want)
	}
	sec := a.Seconds(m)
	manual := m.CPUOpSec(101) + m.CPURandSec(12) + m.CPUSeqSec(1003) + 9*m.CPU.AtomicSec
	if math.Abs(sec-manual) > 1e-15 {
		t.Errorf("Seconds = %g, want %g", sec, manual)
	}
}

func TestCPUPhaseSecondsIsMaxPlusBarrier(t *testing.T) {
	m := Default()
	if got := m.CPUPhaseSeconds(nil); got != 0 {
		t.Errorf("empty phase = %g, want 0", got)
	}
	slow := ThreadCost{Ops: 1e9}
	fast := ThreadCost{Ops: 1e3}
	single := m.CPUPhaseSeconds([]ThreadCost{slow})
	if single != slow.Seconds(m) {
		t.Errorf("single-thread phase should have no barrier: %g vs %g", single, slow.Seconds(m))
	}
	multi := m.CPUPhaseSeconds([]ThreadCost{fast, slow, fast, fast})
	want := slow.Seconds(m) + m.CPU.BarrierSec
	if math.Abs(multi-want) > 1e-15 {
		t.Errorf("multi-thread phase = %g, want max+barrier = %g", multi, want)
	}
}

func TestCPUPhaseSecondsImbalanceDominates(t *testing.T) {
	// A phase with one overloaded thread must cost (almost) as much as the
	// overloaded thread alone: this is the SIMD/load-imbalance effect the
	// paper identifies as the key GPU performance hazard.
	m := Default()
	threads := make([]ThreadCost, 8)
	for i := range threads {
		threads[i] = ThreadCost{Ops: 1e7}
	}
	balanced := m.CPUPhaseSeconds(threads)
	threads[3] = ThreadCost{Ops: 8e7}
	skewed := m.CPUPhaseSeconds(threads)
	if skewed < 7*balanced/2 {
		t.Errorf("skewed phase %g should be much slower than balanced %g", skewed, balanced)
	}
}

func TestTimelineTotals(t *testing.T) {
	var tl Timeline
	tl.Append("coarsen", LocGPU, 1.5)
	tl.Append("transfer", LocPCIe, 0.25)
	tl.Append("initpart", LocCPU, 0.5)
	tl.Append("coarsen", LocGPU, 0.5)
	tl.Append("bogus", LocCPU, -3) // clamped to 0

	if got := tl.Total(); math.Abs(got-2.75) > 1e-12 {
		t.Errorf("Total = %g, want 2.75", got)
	}
	if got := tl.TotalAt(LocGPU); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("TotalAt(GPU) = %g, want 2.0", got)
	}
	if got := tl.TotalAt(LocPCIe); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("TotalAt(PCIe) = %g, want 0.25", got)
	}
	if n := len(tl.Phases()); n != 5 {
		t.Errorf("Phases len = %d, want 5", n)
	}
	agg := tl.ByPhaseName()
	if len(agg) != 4 {
		t.Fatalf("ByPhaseName len = %d, want 4", len(agg))
	}
	// Sorted by name: bogus, coarsen, initpart, transfer.
	if agg[1].Name != "coarsen" || math.Abs(agg[1].Seconds-2.0) > 1e-12 {
		t.Errorf("aggregated coarsen = %+v", agg[1])
	}
}

func TestTimelineMergeAndString(t *testing.T) {
	var a, b Timeline
	a.Append("x", LocCPU, 1)
	b.Append("y", LocGPU, 2)
	a.Merge(&b)
	if a.Total() != 3 {
		t.Errorf("merged total = %g, want 3", a.Total())
	}
	s := a.String()
	for _, want := range []string{"x", "y", "TOTAL", "GPU", "CPU"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestLocationString(t *testing.T) {
	if LocCPU.String() != "CPU" || LocGPU.String() != "GPU" || LocPCIe.String() != "PCIe" || LocNet.String() != "NET" {
		t.Error("Location.String mismatch")
	}
	if !strings.Contains(Location(42).String(), "42") {
		t.Error("unknown Location should print its value")
	}
}

// Property: timeline total equals the sum of per-location totals, for any
// sequence of appended phases.
func TestTimelineTotalPartitionProperty(t *testing.T) {
	f := func(secs []float64, locs []uint8) bool {
		var tl Timeline
		for i, s := range secs {
			loc := LocCPU
			if len(locs) > 0 {
				loc = Location(locs[i%len(locs)] % 4)
			}
			// Keep values finite and bounded so the sum cannot overflow.
			if math.IsNaN(s) || math.IsInf(s, 0) {
				s = 1
			}
			s = math.Mod(math.Abs(s), 1e6)
			tl.Append("p", loc, s)
		}
		sum := tl.TotalAt(LocCPU) + tl.TotalAt(LocGPU) + tl.TotalAt(LocPCIe) + tl.TotalAt(LocNet)
		return math.Abs(sum-tl.Total()) <= 1e-9*(1+math.Abs(tl.Total()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ThreadCost.Seconds is monotone in each work component.
func TestThreadCostMonotoneProperty(t *testing.T) {
	m := Default()
	f := func(ops, rand, seq, at uint32) bool {
		base := ThreadCost{Ops: float64(ops), Rand: float64(rand), SeqBytes: float64(seq), Atomics: float64(at)}
		bigger := base
		bigger.Ops++
		bigger.Rand++
		bigger.SeqBytes++
		bigger.Atomics++
		return bigger.Seconds(m) > base.Seconds(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
