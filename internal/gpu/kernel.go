package gpu

import (
	"fmt"
	"math/bits"

	"gpmetis/internal/fault"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// Kernel is the body executed by every logical GPU thread of a launch.
// The *Ctx it receives is valid only for that call: Launch reuses one Ctx
// for every thread of the launch, so a kernel must not retain it.
type Kernel func(c *Ctx)

// Ctx is one thread's view of the executing kernel. Kernels call its
// methods to perform *accounted* memory traffic; plain Go slice access in
// the kernel body does the actual data movement. A *Ctx is valid only
// during the Kernel call it is passed to.
type Ctx struct {
	tid  int
	lane int
	ops  int64
	seq  int
	w    *warpState
	acct bool

	// fp is the launch's footprint, nil unless the launch has one and
	// accounting is on. record is set while it is being recorded; replay
	// is set in a safe warp of a later launch, whose fixed accesses skip
	// the coalescing table. skip is replay until the iteration's first
	// dynamic access, after which a fixed access breaks the contract.
	fp                   *Footprint
	record, replay, skip bool
	// converged is set once the thread has called Converge; dyn counts the
	// dynamic accesses since then (or since the thread started), and
	// fixedEnd is the access index just past the current iteration's
	// last fixed access.
	converged     bool
	dyn, fixedEnd int
	// fixedAcc counts the warp's fixed accesses.
	fixedAcc int64
}

// TID returns the global thread index in [0, nThreads).
func (c *Ctx) TID() int { return c.tid }

// Lane returns the thread's lane within its warp, in [0, WarpSize).
func (c *Ctx) Lane() int { return c.lane }

// Op charges n scalar instructions to the thread.
func (c *Ctx) Op(n int) { c.ops += int64(n) }

// convergeStride is the access-index budget of one converged loop
// iteration (see Converge).
const convergeStride = 192

// Converge marks the start of loop iteration iter of a grid-stride (or
// chunked) loop. SIMT lanes re-converge at the loop head, so accesses in
// the same iteration of different lanes issue as common warp instructions
// and may coalesce; Converge aligns the lanes' access indices to make
// that visible to the cost model. Iterations that perform more than
// convergeStride accounted accesses simply keep counting — alignment is
// then lost for the tail, exactly as divergence would lose it in
// hardware.
func (c *Ctx) Converge(iter int) {
	base := iter * convergeStride
	if c.fp != nil {
		c.endIteration(base)
	}
	if base > c.seq {
		c.seq = base
	}
	c.fixedEnd = c.seq
}

// endIteration closes a footprint launch's iteration at Converge. The
// next iteration starts at base only if the closing one, with its dynamic
// accesses at their declared bound, ends by base; a recorded warp where
// some thread's iteration does not is unsafe to replay. Before a thread's
// first Converge there is no bound, so a dynamic access there could shift
// every later access and is refused.
func (c *Ctx) endIteration(base int) {
	if !c.converged {
		if c.dyn > 0 {
			panic("gpu: footprint launch: dynamic access before the first Converge")
		}
		c.converged = true
	} else if c.record && c.fixedEnd+c.fp.dynPerIter > base {
		c.w.unsafe = true
	}
	c.dyn, c.skip = 0, c.replay
}

// Load charges one global-memory read of element i of array a. Reads by
// other lanes of the same warp at the same per-thread access index that
// hit the same 128-byte segment coalesce into one transaction.
func (c *Ctx) Load(a Array, i int) {
	c.access(a, i)
	if c.fp != nil {
		c.dynamic(a, 1)
	}
}

// Store charges one global-memory write, with the same coalescing rule.
func (c *Ctx) Store(a Array, i int) { c.Load(a, i) }

// LoadN charges n consecutive reads starting at element i (a thread-local
// sequential scan of a[i:i+n]); consecutive elements within one 128-byte
// segment share a transaction even for a single lane, so the charge is one
// access per spanned segment.
func (c *Ctx) LoadN(a Array, i, n int) {
	seq := c.seq
	c.loadN(a, i, n)
	if c.fp != nil {
		c.dynamic(a, c.seq-seq)
	}
}

// LoadFixed is Load for an access whose address depends only on the
// launch's shape and on data the launches sharing its footprint never
// change. Under LaunchFootprint it is accounted in full once, when the
// footprint is recorded, and replayed from the record afterwards; in any
// other launch it is Load.
func (c *Ctx) LoadFixed(a Array, i int) {
	if c.skip {
		// The record holds the charge; only the counts advance.
		c.ops++
		c.seq++
		c.fixedAcc++
		return
	}
	c.loadFixed(a, i)
}

func (c *Ctx) loadFixed(a Array, i int) {
	if c.fp == nil {
		c.access(a, i)
		return
	}
	c.fixed(a)
	c.fixedAcc++
	if c.replay {
		c.ops++
		c.seq++
		return
	}
	c.access(a, i)
	c.fixedEnd = c.seq
}

// LoadNFixed is LoadN for a fixed-address scan, as LoadFixed is for Load.
func (c *Ctx) LoadNFixed(a Array, i, n int) {
	if c.fp == nil {
		c.loadN(a, i, n)
		return
	}
	c.fixed(a)
	if n <= 0 {
		c.ops += int64(n)
		return
	}
	c.fixedAcc += int64(n)
	if c.replay {
		c.ops += int64(n)
		c.seq += int(c.w.segment(int64(i+n)*a.elem-1)-c.w.segment(int64(i)*a.elem)) + 1
		return
	}
	c.loadN(a, i, n)
	c.fixedEnd = c.seq
}

// fixed checks a fixed access of a footprint launch against the contract:
// within an iteration fixed accesses precede dynamic ones, and no array
// takes both kinds.
func (c *Ctx) fixed(a Array) {
	if c.dyn > 0 {
		panic("gpu: footprint launch: fixed access after a dynamic one in the same iteration")
	}
	if c.record {
		c.fp.noteFixed(a.id)
	}
}

// dynamic counts n dynamic access indices of a footprint launch against
// the declared per-iteration bound.
func (c *Ctx) dynamic(a Array, n int) {
	c.dyn, c.skip = c.dyn+n, false
	if c.converged && c.dyn > c.fp.dynPerIter {
		panic(fmt.Sprintf("gpu: footprint launch: %d dynamic accesses in one iteration, declared at most %d", c.dyn, c.fp.dynPerIter))
	}
	c.fp.noteDynamic(a.id)
}

func (c *Ctx) loadN(a Array, i, n int) {
	c.ops += int64(n)
	if !c.acct || n <= 0 {
		return
	}
	c.w.accesses += int64(n)
	first := c.w.segment(int64(i) * a.elem)
	last := c.w.segment(int64(i+n)*a.elem - 1)
	for s := first; s <= last; s++ {
		slot := c.w.slot(c.seq)
		c.seq++
		slot.addSeg(a.id<<40 | s)
	}
}

// StoreN charges n consecutive writes starting at element i.
func (c *Ctx) StoreN(a Array, i, n int) { c.LoadN(a, i, n) }

// Atomic charges one global atomic read-modify-write on element i of a.
// Atomics by lanes of the same warp on the same element serialize.
func (c *Ctx) Atomic(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	c.w.atomicOps++
	addr := a.id<<40 | int64(i)
	s := c.w.slot(c.seq)
	c.seq++
	s.addAddr(addr)
	if c.fp != nil {
		c.dynamic(a, 1)
	}
}

func (c *Ctx) access(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	c.w.accesses++
	seg := a.id<<40 | c.w.segment(int64(i)*a.elem)
	s := c.w.slot(c.seq)
	c.seq++
	s.addSeg(seg)
}

// segSlot tracks, for one per-thread access index within one warp, the
// distinct memory segments touched (for coalescing) and the per-address
// atomic multiplicities (for serialization). A warp has at most
// perfmodel.MaxWarpSize lanes (Launch enforces it), so fixed-size arrays
// suffice. Only segs[:n] and count[:n] are live: a reused slot resets n,
// atomic and filter and leaves the arrays' stale tails in place.
type segSlot struct {
	n      int
	atomic bool
	// filter has bit filterHash(seg) set for every seg in segs[:n]; a
	// clear bit proves the segment absent, so it is appended without a
	// scan. For a set bit h, last[h] is the index of the newest segment
	// hashing to h; entries for clear bits are stale.
	filter uint64
	last   [64]uint8
	segs   [perfmodel.MaxWarpSize]int64
	count  [perfmodel.MaxWarpSize]int32
}

// filterHash maps a segment to one of the filter's 64 bits by Fibonacci
// hashing, which spreads consecutive and strided segments alike.
func filterHash(seg int64) uint64 {
	return uint64(seg) * 0x9E3779B97F4A7C15 >> 58
}

// addSeg scans only on a filter collision: a clear bit means seg is
// absent, and a set bit is first checked against the newest segment with
// that bit. When that is another segment, it scans newest-first. Segments
// in a slot are distinct, so the lookup order changes no count.
func (s *segSlot) addSeg(seg int64) {
	h := filterHash(seg)
	bit := uint64(1) << h
	if s.filter&bit != 0 {
		if i := s.last[h]; s.segs[i] == seg {
			s.count[i]++
			return
		}
		for i := s.n - 1; i >= 0; i-- {
			if s.segs[i] == seg {
				s.count[i]++
				return
			}
		}
	}
	if s.n < len(s.segs) {
		s.filter |= bit
		s.last[h] = uint8(s.n)
		s.segs[s.n] = seg
		s.count[s.n] = 1
		s.n++
	}
}

func (s *segSlot) addAddr(addr int64) {
	s.atomic = true
	s.addSeg(addr)
}

// maxCount returns the largest per-address multiplicity, i.e. the
// serialization depth of a warp-atomic at this access index.
func (s *segSlot) maxCount() int64 {
	var m int32
	for i := 0; i < s.n; i++ {
		if s.count[i] > m {
			m = s.count[i]
		}
	}
	return int64(m)
}

type warpState struct {
	slots    []segSlot
	used     int
	segBytes int64
	// segShift is log2(segBytes) when segBytes is a power of two, else
	// -1; the shift replaces a 64-bit division on every accounted access.
	segShift  int
	accesses  int64
	atomicOps int64
	// unsafe marks a recorded warp that must be accounted in full.
	unsafe bool
}

func newWarpState(segBytes int) *warpState {
	w := &warpState{segBytes: int64(segBytes), segShift: -1}
	if segBytes > 0 && segBytes&(segBytes-1) == 0 {
		w.segShift = bits.TrailingZeros(uint(segBytes))
	}
	return w
}

// segment returns the transaction segment holding byte offset off. Offsets
// are non-negative, where the shift and the division agree.
func (w *warpState) segment(off int64) int64 {
	if w.segShift >= 0 {
		return off >> w.segShift
	}
	return off / w.segBytes
}

func (w *warpState) slot(seq int) *segSlot {
	for seq >= w.used {
		if w.used == len(w.slots) {
			w.slots = append(w.slots, segSlot{})
		} else {
			// Reset only n, atomic and filter, which mark what of the
			// arrays is live; zeroing the arrays would cost more than
			// the accesses they count.
			s := &w.slots[w.used]
			s.n, s.atomic, s.filter = 0, false, 0
		}
		w.used++
	}
	return &w.slots[seq]
}

func (w *warpState) reset() {
	w.used = 0
	w.accesses = 0
	w.atomicOps = 0
	w.unsafe = false
}

// Footprint is the recorded accounting of the fixed-address accesses
// (Ctx.LoadFixed, Ctx.LoadNFixed) of a kernel launched repeatedly over the
// same threads, for example one scan per refinement pass over one graph
// level. The first LaunchFootprint that uses it accounts every access as
// Launch does and records, per warp, the fixed accesses' transactions,
// their access count, and for each access index the largest number of
// lanes sharing one fixed segment. Later launches skip the coalescing
// table for fixed accesses and add the record at the end of each warp;
// their dynamic accesses (every other Load, Store or Atomic) are accounted
// as usual. Fixed and dynamic accesses use disjoint arrays, so their
// transactions add, and an atomic's serialization depth at an access index
// is the larger of the two kinds' multiplicities, as in one shared table.
//
// The contract, checked with panics: in each Converge iteration the fixed
// accesses precede the dynamic ones and at most the declared number of
// dynamic access indices follow them; there are no dynamic accesses before
// a thread's first Converge; no array takes both kinds; and a replay has
// the recording's thread count and, per warp, its fixed access count.
//
// Replay is exact only where every fixed access keeps its access index.
// An index moves only when an iteration overflows convergeStride and
// pushes the next one, so the recording marks a warp safe only if, in
// every thread and iteration, the fixed accesses plus the dynamic bound
// fit before the next iteration's start. Other warps are accounted in full
// on every launch.
//
// A Footprint is owned by its caller and belongs to one device and one
// set of arrays; with Device.Accounting off it is not used.
type Footprint struct {
	dynPerIter int
	recorded   bool
	nThreads   int
	// fixedIDs and dynIDs are the arrays of the fixed and the dynamic
	// accesses.
	fixedIDs, dynIDs []int64
	warps            []warpPrint
	// maxCount holds, for each safe warp, one byte per access index: the
	// most lanes sharing a fixed segment there (at most MaxWarpSize).
	maxCount []uint8
}

// warpPrint is one warp's record in a Footprint.
type warpPrint struct {
	safe                   bool
	transactions, accesses int64
	// maxCount[off:off+n] are the warp's per-index multiplicities; indices
	// past n hold no fixed access.
	off, n int
}

// NewFootprint returns an empty footprint for a kernel that makes at most
// dynPerIter dynamic access indices per Converge iteration.
func NewFootprint(dynPerIter int) *Footprint {
	if dynPerIter < 0 {
		panic(fmt.Sprintf("gpu: NewFootprint(%d): negative dynamic bound", dynPerIter))
	}
	return &Footprint{dynPerIter: dynPerIter}
}

func (f *Footprint) noteFixed(id int64) {
	if hasID(f.dynIDs, id) {
		panic("gpu: footprint launch: an array takes both fixed and dynamic accesses")
	}
	if !hasID(f.fixedIDs, id) {
		f.fixedIDs = append(f.fixedIDs, id)
	}
}

func (f *Footprint) noteDynamic(id int64) {
	if hasID(f.fixedIDs, id) {
		panic("gpu: footprint launch: an array takes both fixed and dynamic accesses")
	}
	if !f.recorded && !hasID(f.dynIDs, id) {
		f.dynIDs = append(f.dynIDs, id)
	}
}

func hasID(ids []int64, id int64) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// recordWarp appends the fixed accesses of the warp just accounted in w.
// Keys carry their array id above bit 40, which tells fixed from dynamic.
func (f *Footprint) recordWarp(w *warpState, fixedAcc int64) {
	p := warpPrint{safe: !w.unsafe}
	if p.safe {
		p.accesses = fixedAcc
		p.off = len(f.maxCount)
		for i := 0; i < w.used; i++ {
			s := &w.slots[i]
			var mc int32
			for j := 0; j < s.n; j++ {
				if hasID(f.fixedIDs, s.segs[j]>>40) {
					p.transactions++
					mc = max(mc, s.count[j])
				}
			}
			f.maxCount = append(f.maxCount, uint8(mc))
			if mc > 0 {
				p.n = i + 1
			}
		}
		f.maxCount = f.maxCount[:p.off+p.n]
	}
	f.warps = append(f.warps, p)
}

// Launch executes kernel k for nThreads logical threads, charges the
// modeled kernel duration to the device's timeline under the given name,
// and returns that duration in seconds.
//
// Execution order is deterministic: warps run in increasing warp index,
// lanes in increasing lane order. Lock-free kernels that race in CUDA
// (e.g. the paper's matching kernel) see one fixed interleaving here; the
// conflicts the paper's second "resolve" kernel exists for still occur
// because they are inherent to the algorithm, not to timing.
func (d *Device) Launch(name string, nThreads int, k Kernel) float64 {
	return d.launch(name, nThreads, nil, k)
}

// LaunchFootprint is Launch with the fixed-address accesses of k recorded
// in fp on its first use and replayed from it afterwards (see Footprint).
// Every later launch sharing fp must run the same number of threads with
// the same fixed accesses. The charges equal Launch's exactly.
func (d *Device) LaunchFootprint(name string, nThreads int, fp *Footprint, k Kernel) float64 {
	return d.launch(name, nThreads, fp, k)
}

func (d *Device) launch(name string, nThreads int, fp *Footprint, k Kernel) float64 {
	if nThreads < 0 {
		panic(fmt.Sprintf("gpu: Launch(%q, %d): negative thread count", name, nThreads))
	}
	if ws := d.m.GPU.WarpSize; ws > perfmodel.MaxWarpSize {
		panic(fmt.Sprintf("gpu: Launch(%q): WarpSize %d exceeds the %d lanes a warp's coalescing table holds", name, ws, perfmodel.MaxWarpSize))
	}
	if d.inj != nil {
		// A failed launch wastes one launch overhead before the retry.
		d.preflight(fault.SiteKernel, name, perfmodel.LocGPU, d.m.GPU.LaunchSec)
	}
	ws := d.m.GPU.WarpSize
	w := newWarpState(d.m.GPU.TransactionBytes)
	// One Ctx serves every thread of the launch; a fresh one per thread
	// would escape to the heap through the kernel closure.
	c := &Ctx{w: w, acct: d.Accounting}
	if fp != nil && d.Accounting {
		c.fp, c.record = fp, !fp.recorded
		if c.record {
			fp.fixedIDs, fp.dynIDs = fp.fixedIDs[:0], fp.dynIDs[:0]
			fp.warps, fp.maxCount = fp.warps[:0], fp.maxCount[:0]
		} else if fp.nThreads != nThreads {
			panic(fmt.Sprintf("gpu: LaunchFootprint(%q, %d): footprint recorded for %d threads", name, nThreads, fp.nThreads))
		}
	}
	var warpInstr, laneInstr, transactions, atomicSerial, accesses, atomicOps int64
	var maxWarpInstr int64

	for base := 0; base < nThreads; base += ws {
		w.reset()
		c.fixedAcc = 0
		// A safe warp of a replay adds its record; fixedMax is its
		// per-index fixed multiplicities.
		var rec *warpPrint
		var fixedMax []uint8
		if c.fp != nil && !c.record {
			rec = &fp.warps[base/ws]
			c.replay = rec.safe
			if c.replay {
				fixedMax = fp.maxCount[rec.off : rec.off+rec.n]
			}
		}
		var warpMaxOps int64
		for lane := 0; lane < ws && base+lane < nThreads; lane++ {
			c.tid, c.lane, c.ops, c.seq = base+lane, lane, 0, 0
			c.converged, c.dyn, c.fixedEnd, c.skip = false, 0, 0, c.replay
			k(c)
			laneInstr += c.ops
			if c.ops > warpMaxOps {
				warpMaxOps = c.ops
			}
		}
		warpInstr += warpMaxOps
		if warpMaxOps > maxWarpInstr {
			maxWarpInstr = warpMaxOps
		}
		if c.replay {
			if c.fixedAcc != rec.accesses {
				panic(fmt.Sprintf("gpu: LaunchFootprint(%q): warp %d made %d fixed accesses, recorded %d", name, base/ws, c.fixedAcc, rec.accesses))
			}
			transactions += rec.transactions
			accesses += rec.accesses
		}
		for i := 0; i < w.used; i++ {
			s := &w.slots[i]
			transactions += int64(s.n)
			// Only atomics serialize on address conflicts; coalesced
			// loads sharing a segment are the fast path.
			if s.atomic {
				mc := s.maxCount()
				if i < len(fixedMax) {
					mc = max(mc, int64(fixedMax[i]))
				}
				if mc > 1 {
					atomicSerial += mc
				}
			}
		}
		accesses += w.accesses
		atomicOps += w.atomicOps
		if c.record {
			fp.recordWarp(w, c.fixedAcc)
		}
	}
	if c.record {
		fp.recorded, fp.nThreads = true, nThreads
	}

	delta := Stats{
		Kernels:          1,
		Threads:          int64(nThreads),
		WarpInstructions: warpInstr,
		LaneInstructions: laneInstr,
		Transactions:     transactions,
		Accesses:         accesses,
		AtomicOps:        atomicOps,
		AtomicSerial:     atomicSerial,
	}
	sec := d.kernelSeconds(delta, maxWarpInstr)
	if d.sink == nil {
		d.tl.Append(name, perfmodel.LocGPU, sec)
	} else {
		// Per-launch span with this launch's stats delta, so every level
		// of the trace attributes its own kernel work.
		var id int64
		if sp := TraceLaunch(d.sink, name, d.tl.Total(), sec, delta); sp != nil {
			id = sp.ID
		}
		d.tl.AppendTagged(name, perfmodel.LocGPU, sec, id)
	}
	d.stats = d.stats.Add(delta)
	return sec
}

// Kernel launch span attributes: TraceLaunch writes them, LaunchStats
// reads them back. "loc" is shared with every other timeline phase span;
// the seconds attribute carries the launch's exact charge, which the
// span's End-Start difference only approximates in floating point.
const (
	attrLoc              = "loc"
	attrSeconds          = "seconds"
	attrThreads          = "threads"
	attrWarpInstructions = "warp_instructions"
	attrLaneInstructions = "lane_instructions"
	attrTransactions     = "transactions"
	attrAccesses         = "accesses"
	attrAtomicOps        = "atomic_ops"
	attrAtomicSerial     = "atomic_serial"
)

// TraceLaunch records one kernel launch as a leaf span under the sink's
// current parent: its modeled seconds and its counter delta s. It is the
// span every launch on a traced device emits; LaunchStats reads it back.
func TraceLaunch(sink *obs.TimelineSink, name string, start, seconds float64, s Stats) *obs.Span {
	return sink.Leaf(name, start, seconds,
		obs.Str(attrLoc, perfmodel.LocGPU.String()),
		obs.Float(attrSeconds, seconds),
		obs.Int(attrThreads, s.Threads),
		obs.Int(attrWarpInstructions, s.WarpInstructions),
		obs.Int(attrLaneInstructions, s.LaneInstructions),
		obs.Int(attrTransactions, s.Transactions),
		obs.Int(attrAccesses, s.Accesses),
		obs.Int(attrAtomicOps, s.AtomicOps),
		obs.Int(attrAtomicSerial, s.AtomicSerial))
}

// LaunchStats reads a kernel launch back from the span TraceLaunch wrote:
// its counter delta (Kernels = 1, no PCIe bytes) and its modeled seconds.
// ok is false for every other span, including fault-retry phases, which
// are GPU-located but carry no launch counters.
func LaunchStats(sp *obs.Span) (s Stats, seconds float64, ok bool) {
	var onGPU bool
	for _, a := range sp.Attrs() {
		switch a.Key {
		case attrLoc:
			onGPU = a.StrV == perfmodel.LocGPU.String()
		case attrSeconds:
			seconds, ok = a.FloatV, true
		case attrThreads:
			s.Threads = a.IntV
		case attrWarpInstructions:
			s.WarpInstructions = a.IntV
		case attrLaneInstructions:
			s.LaneInstructions = a.IntV
		case attrTransactions:
			s.Transactions = a.IntV
		case attrAccesses:
			s.Accesses = a.IntV
		case attrAtomicOps:
			s.AtomicOps = a.IntV
		case attrAtomicSerial:
			s.AtomicSerial = a.IntV
		}
	}
	if !onGPU || !ok {
		return Stats{}, 0, false
	}
	s.Kernels = 1
	return s, seconds, true
}

// Roofline is the cost model's decomposition of charged kernel work into
// modeled seconds, one term per wall a kernel can run into:
//
//	Compute: warp-instructions * WarpSize lanes / device lane throughput
//	Memory:  transactions * 128B / device bandwidth
//	Latency: per-warp transaction latency divided by the warp slots
//	         available to hide it
//	Atomic:  serialized atomic time, spread over the SMs
//	Launch:  fixed per-launch overhead
type Roofline struct {
	Compute, Memory, Latency, Atomic, Launch float64
}

// RooflineTerms computes the roofline terms of the work in s on the
// machine's GPU. A launch charges Launch plus the max of Compute, Memory,
// and Latency (floored by its slowest warp) plus Atomic; the profiler
// applies the same terms to a kernel's summed counters.
func RooflineTerms(m *perfmodel.Machine, s Stats) Roofline {
	g := m.GPU
	laneThroughput := float64(g.SMs) * float64(g.CoresPerSM) * g.ClockHz
	hiding := float64(g.SMs * g.WarpSlotsPerSM)
	return Roofline{
		Compute: float64(s.WarpInstructions) * float64(g.WarpSize) / laneThroughput,
		Memory:  float64(s.Transactions) * float64(g.TransactionBytes) / g.MemBytesPerSec,
		Latency: float64(s.Transactions) * g.MemLatencySec / hiding,
		Atomic:  float64(s.AtomicSerial) * g.AtomicSec / float64(g.SMs),
		Launch:  float64(s.Kernels) * g.LaunchSec,
	}
}

// kernelSeconds converts one launch's charged work into modeled time:
// launch overhead plus the roofline max of the compute, memory, and
// latency terms, plus serialized atomic time, floored by the critical
// path of the longest single warp (a nearly-empty launch cannot finish
// faster than its slowest warp).
func (d *Device) kernelSeconds(s Stats, maxWarpInstr int64) float64 {
	t := RooflineTerms(d.m, s)
	body := t.Compute
	if t.Memory > body {
		body = t.Memory
	}
	if t.Latency > body {
		body = t.Latency
	}
	// Critical path of the slowest warp: instructions at one per cycle.
	if crit := float64(maxWarpInstr) / d.m.GPU.ClockHz; crit > body {
		body = crit
	}
	return t.Launch + body + t.Atomic
}
