// Package gpu is a deterministic SIMT GPU execution simulator: the
// substitution this reproduction uses for the paper's CUDA/GTX-Titan
// substrate (see DESIGN.md §1).
//
// Kernels are ordinary Go functions invoked once per logical thread.
// Threads are grouped into 32-wide warps; the simulator executes warps one
// after another (a deterministic interleaving of the paper's concurrent
// execution) and, per warp, charges the cost model for
//
//   - instruction work, taking the per-warp MAX over lanes so SIMD load
//     imbalance (the paper's main performance hazard) lengthens the warp,
//   - global-memory transactions with real coalescing detection: accesses
//     by different lanes at the same per-thread access index that fall
//     into one aligned 128-byte segment merge into one transaction,
//   - atomic serialization per conflicting address,
//
// and converts the totals to modeled seconds under a roofline combination
// of instruction throughput, memory bandwidth, and latency-hiding limits.
// Device memory capacity and PCIe transfers are modeled too: allocations
// beyond the 6 GB device fail, and every host<->device copy costs
// latency + size/bandwidth on the shared timeline.
package gpu

import (
	"errors"
	"fmt"

	"gpmetis/internal/fault"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// ErrDeviceMemory is the sentinel wrapped by every allocation failure —
// real capacity overflow or an injected one — so callers can classify
// the error as capacity pressure (degradable) with errors.Is.
var ErrDeviceMemory = errors.New("gpu: out of device memory")

// Array identifies one device allocation for the access-cost model. The
// actual data lives in ordinary Go slices captured by kernel closures; an
// Array only gives those slices an address space so that coalescing and
// atomic conflicts can be detected.
type Array struct {
	id   int64
	elem int64
}

// ElemBytes returns the element size the array was declared with.
func (a Array) ElemBytes() int { return int(a.elem) }

// Device is one modeled GPU. It is not safe for concurrent use: the
// partitioners issue kernels and transfers from a single control thread,
// exactly like a CUDA stream.
type Device struct {
	m  *perfmodel.Machine
	tl *perfmodel.Timeline

	nextArrayID int64
	allocated   int64
	arrayBytes  map[int64]int64

	// Accounting can be switched off to run kernels at full host speed
	// when only the computational result matters (tests, examples).
	Accounting bool

	stats Stats
	sink  *obs.TimelineSink

	inj   *fault.Injector
	retry fault.RetryPolicy
}

// Stats aggregates device activity since the last ResetStats, for tests,
// ablations, and the benchmark's verbose output.
type Stats struct {
	Kernels          int
	Threads          int64
	WarpInstructions int64 // sum over warps of max-lane instruction counts
	LaneInstructions int64 // sum over all lanes (no divergence penalty)
	Transactions     int64 // global-memory transactions after coalescing
	Accesses         int64 // raw lane-level accesses before coalescing
	AtomicOps        int64 // raw atomic operations
	AtomicSerial     int64 // serialized atomic cost after conflict grouping
	BytesToDevice    int64
	BytesToHost      int64
}

// NewDevice returns a Device charging machine m and appending phases to tl.
func NewDevice(m *perfmodel.Machine, tl *perfmodel.Timeline) *Device {
	return &Device{
		m:          m,
		tl:         tl,
		arrayBytes: map[int64]int64{},
		Accounting: true,
	}
}

// Machine returns the machine model the device charges.
func (d *Device) Machine() *perfmodel.Machine { return d.m }

// Add returns the field-wise sum of two Stats.
func (s Stats) Add(o Stats) Stats {
	s.Kernels += o.Kernels
	s.Threads += o.Threads
	s.WarpInstructions += o.WarpInstructions
	s.LaneInstructions += o.LaneInstructions
	s.Transactions += o.Transactions
	s.Accesses += o.Accesses
	s.AtomicOps += o.AtomicOps
	s.AtomicSerial += o.AtomicSerial
	s.BytesToDevice += o.BytesToDevice
	s.BytesToHost += o.BytesToHost
	return s
}

// Sub returns the field-wise difference s - o: the activity between two
// Stats snapshots, which is how per-level attribution is captured without
// resetting the run-total counters.
func (s Stats) Sub(o Stats) Stats {
	s.Kernels -= o.Kernels
	s.Threads -= o.Threads
	s.WarpInstructions -= o.WarpInstructions
	s.LaneInstructions -= o.LaneInstructions
	s.Transactions -= o.Transactions
	s.Accesses -= o.Accesses
	s.AtomicOps -= o.AtomicOps
	s.AtomicSerial -= o.AtomicSerial
	s.BytesToDevice -= o.BytesToDevice
	s.BytesToHost -= o.BytesToHost
	return s
}

// Attrs renders the counters as span attributes under the given prefix.
func (s Stats) Attrs(prefix string) []obs.Attr {
	return []obs.Attr{
		obs.Int(prefix+"kernels", int64(s.Kernels)),
		obs.Int(prefix+"threads", s.Threads),
		obs.Int(prefix+"warp_instructions", s.WarpInstructions),
		obs.Int(prefix+"lane_instructions", s.LaneInstructions),
		obs.Int(prefix+"transactions", s.Transactions),
		obs.Int(prefix+"accesses", s.Accesses),
		obs.Int(prefix+"atomic_ops", s.AtomicOps),
		obs.Int(prefix+"atomic_serial", s.AtomicSerial),
		obs.Int(prefix+"bytes_to_device", s.BytesToDevice),
		obs.Int(prefix+"bytes_to_host", s.BytesToHost),
	}
}

// CoalescingEfficiency returns Transactions/Accesses: the fraction of raw
// lane-level accesses that survived coalescing as real global-memory
// transactions. 1/WarpSize (~3%) is a perfectly coalesced warp (32
// accesses merge into one transaction); 100% is fully scattered traffic
// where every access pays its own transaction. Atomic traffic issues
// transactions without raw accesses, so atomic-heavy kernels can exceed
// 1.0. Returns 0 when no accesses were charged.
func (s Stats) CoalescingEfficiency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Transactions) / float64(s.Accesses)
}

// DivergenceFactor returns WarpSize*WarpInstructions/LaneInstructions:
// how much longer the warps ran than their average lane. 1.0 means every
// lane of every warp did identical work (no divergence); WarpSize means
// one lane per warp did everything while 31 idled. Returns 0 when no
// instructions were charged.
func (s Stats) DivergenceFactor() float64 {
	if s.LaneInstructions == 0 {
		return 0
	}
	return float64(warpSize) * float64(s.WarpInstructions) / float64(s.LaneInstructions)
}

// AtomicSerializationRatio returns AtomicSerial/AtomicOps: the fraction
// of atomic operations that paid serialized conflict cost. 0 means every
// warp's atomics hit distinct addresses; 1.0 means every atomic landed in
// a same-address pile-up. Returns 0 when no atomics were issued.
func (s Stats) AtomicSerializationRatio() float64 {
	if s.AtomicOps == 0 {
		return 0
	}
	return float64(s.AtomicSerial) / float64(s.AtomicOps)
}

// warpSize is the SIMT width the divergence ratio normalizes against.
// Every modeled machine uses 32-wide warps (perfmodel.Default and the
// paper's GTX Titan); the per-warp segSlot arrays hard-code it too.
const warpSize = 32

// Stats returns the activity counters accumulated so far.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats clears the activity counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// RestoreStats overwrites the activity counters with a checkpoint
// snapshot, so a resumed run's final totals match the uninterrupted
// run's instead of counting only post-resume activity.
func (d *Device) RestoreStats(s Stats) { d.stats = s }

// SetTraceSink installs (or, with nil, removes) the trace sink the device
// emits kernel-launch and transfer spans into. Spans nest under the
// sink's current parent, so the pipeline's level spans automatically
// contain their kernels.
func (d *Device) SetTraceSink(s *obs.TimelineSink) { d.sink = s }

// TraceSink returns the device's trace sink (nil when tracing is off).
func (d *Device) TraceSink() *obs.TimelineSink { return d.sink }

// Now returns the device timeline's current modeled time, the clock that
// spans around device work should use.
func (d *Device) Now() float64 { return d.tl.Total() }

// SetFaults installs a fault injector and the retry policy for transient
// faults. A nil injector restores the unfaulted fast path: with inj ==
// nil no fault code runs at all, so existing modeled times are
// bit-identical.
func (d *Device) SetFaults(inj *fault.Injector, retry fault.RetryPolicy) {
	d.inj = inj
	d.retry = retry
}

// Faults returns the device's installed injector (nil when unfaulted).
func (d *Device) Faults() *fault.Injector { return d.inj }

// preflight evaluates a transient fault site before a launch or
// transfer. Each fired evaluation models one failed attempt: it charges
// attemptSec (the wasted launch overhead or bus latency) plus
// exponential backoff to the timeline, then re-evaluates. When the retry
// budget is exhausted the device is modeled as lost and the call unwinds
// with *fault.DeviceLost for the pipeline's recover barrier.
func (d *Device) preflight(site fault.Site, name string, loc perfmodel.Location, attemptSec float64) {
	for attempt := 1; ; attempt++ {
		fe := d.inj.Check(site)
		if fe == nil {
			return
		}
		if attempt > d.retry.Max {
			panic(&fault.DeviceLost{Err: fe})
		}
		sec := attemptSec + d.retry.Backoff(attempt)
		rname := "fault.retry." + string(site)
		if d.sink == nil {
			d.tl.Append(rname, loc, sec)
		} else {
			d.sink.Metrics().Add("fault.retries", 1)
			sp := d.sink.Leaf(rname, d.tl.Total(), sec,
				obs.Str("loc", loc.String()),
				obs.Str("site", string(site)),
				obs.Str("op", name),
				obs.Int("attempt", int64(attempt)))
			var id int64
			if sp != nil {
				id = sp.ID
			}
			d.tl.AppendTagged(rname, loc, sec, id)
		}
	}
}

// Allocated returns the bytes currently allocated on the device.
func (d *Device) Allocated() int64 { return d.allocated }

// Malloc reserves n elements of elemBytes each on the device and returns
// the Array handle. It fails when the modeled 6 GB global memory would be
// exceeded, mirroring the paper's assumption that the graph fits on the
// GPU.
func (d *Device) Malloc(n int, elemBytes int) (Array, error) {
	if n < 0 || elemBytes <= 0 {
		return Array{}, fmt.Errorf("gpu: Malloc(%d,%d): invalid size", n, elemBytes)
	}
	bytes := int64(n) * int64(elemBytes)
	limit := d.m.GPU.GlobalMemBytes
	if capBytes := d.inj.MemCap(); capBytes > 0 && capBytes < limit {
		// Artificial memory pressure: the injector shrinks the device.
		limit = capBytes
	}
	if fe := d.inj.Check(fault.SiteGPUAlloc); fe != nil {
		return Array{}, fmt.Errorf("%w: %w", ErrDeviceMemory, fe)
	}
	if d.allocated+bytes > limit {
		return Array{}, fmt.Errorf("%w: %d + %d > %d bytes (graph does not fit; the paper defers this case to multi-GPU future work)",
			ErrDeviceMemory, d.allocated, bytes, limit)
	}
	d.allocated += bytes
	d.nextArrayID++
	id := d.nextArrayID
	d.arrayBytes[id] = bytes
	return Array{id: id, elem: int64(elemBytes)}, nil
}

// Free releases an allocation (idempotent for already-freed arrays, like
// cudaFree of a dangling handle would be an error — here it is ignored so
// defer-style cleanup stays simple).
func (d *Device) Free(a Array) {
	if bytes, ok := d.arrayBytes[a.id]; ok {
		d.allocated -= bytes
		delete(d.arrayBytes, a.id)
	}
}

// ToDevice charges a host-to-device copy of n bytes.
func (d *Device) ToDevice(name string, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	d.stats.BytesToDevice += bytes
	d.transfer(name, "h2d", bytes)
}

// ToHost charges a device-to-host copy of n bytes.
func (d *Device) ToHost(name string, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	d.stats.BytesToHost += bytes
	d.transfer(name, "d2h", bytes)
}

// transfer charges one PCIe copy and, when tracing, mirrors it as a span
// carrying the byte count and direction.
func (d *Device) transfer(name, dir string, bytes int64) {
	if d.inj != nil {
		// A failed transfer wastes one bus latency before the retry.
		d.preflight(fault.SiteTransfer, name, perfmodel.LocPCIe, d.m.PCIe.LatencySec)
	}
	sec := d.m.PCIeSec(float64(bytes))
	if d.sink == nil {
		d.tl.Append(name, perfmodel.LocPCIe, sec)
		return
	}
	sp := d.sink.Leaf(name, d.tl.Total(), sec,
		obs.Str("loc", perfmodel.LocPCIe.String()),
		obs.Str("dir", dir),
		obs.Int("bytes", bytes))
	var id int64
	if sp != nil {
		id = sp.ID
	}
	d.tl.AppendTagged(name, perfmodel.LocPCIe, sec, id)
}
