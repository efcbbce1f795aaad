// Package fault is a deterministic, seeded fault injector for the modeled
// CPU-GPU substrate. Production code declares named fault sites (a GPU
// allocation, a PCIe transfer, an MPI rank starting up) and asks the
// injector whether that site fires this time; test scenarios arm sites
// with rules (fire with probability p, fire on the Nth evaluation, cap
// modeled device memory). Everything is derived from a single seed by
// counter-based hashing, so a scenario replays identically: same fires,
// same modeled time, same partition.
//
// A nil *Injector is a valid no-op — every method is nil-safe and
// allocation-free, mirroring the internal/obs design, so an un-faulted
// run pays nothing.
package fault

import (
	"fmt"
	"sync"
)

// Site names a point in the pipeline where a fault can be injected.
type Site string

// The fault sites wired into the substrate. SiteGPUMemCap is a
// pseudo-site: it is not evaluated per-call but arms an artificial
// device-memory cap via Rule.Cap.
const (
	SiteGPUAlloc     Site = "gpu.alloc"       // gpu.Malloc fails outright
	SiteGPUMemCap    Site = "gpu.memcap"      // artificial device-memory pressure (Rule.Cap)
	SiteKernel       Site = "gpu.kernel"      // transient kernel-launch error
	SiteTransfer     Site = "pcie.transfer"   // transient PCIe transfer error
	SiteDevice       Site = "multigpu.device" // a device in PartitionMulti dies
	SiteMPIRank      Site = "mpi.rank"        // an MPI rank fails at startup
	SiteHashOverflow Site = "contract.hash"   // hash-table contraction overflow
)

// Sites lists every known fault site, for iterating metrics exports.
var Sites = []Site{
	SiteGPUAlloc, SiteGPUMemCap, SiteKernel, SiteTransfer,
	SiteDevice, SiteMPIRank, SiteHashOverflow,
}

// Transient reports whether faults at this site are transient (worth
// retrying in place) rather than permanent (device dead, memory gone).
func (s Site) Transient() bool {
	return s == SiteKernel || s == SiteTransfer
}

// Rule says when an armed site fires. Zero fields are inactive; the
// fields combine as: the site fires on evaluation seq (1-based) if
// seq == At, or if seq > After and the seeded coin with probability P
// comes up heads — but never more than Limit times total (0 = no limit).
type Rule struct {
	P     float64 // probability per evaluation, in [0,1]
	At    int64   // fire exactly on this 1-based evaluation (0 = off)
	After int64   // P applies only after this many evaluations
	Limit int64   // maximum number of fires (0 = unlimited)
	Cap   int64   // SiteGPUMemCap only: modeled device-memory cap in bytes
}

// Error is an injected fault. It records the site and the 1-based
// evaluation sequence at which it fired, so error text pinpoints the
// exact injection.
type Error struct {
	Site Site
	Seq  int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure (evaluation %d)", e.Site, e.Seq)
}

// Transient reports whether this fault is retryable in place.
func (e *Error) Transient() bool { return e.Site.Transient() }

// DeviceLost is the typed panic payload used to model a GPU dying
// mid-kernel after retries are exhausted: the simulator cannot return an
// error from inside a kernel closure, so it unwinds with this and the
// pipeline's recover barrier converts it back into an error.
type DeviceLost struct {
	Err *Error
}

func (d *DeviceLost) Error() string {
	return fmt.Sprintf("fault: device lost: %v", d.Err)
}

func (d *DeviceLost) Unwrap() error { return d.Err }

// Injector evaluates armed rules deterministically. Concurrency-safe:
// multi-GPU shards and MPI ranks share one injector.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules map[Site]*Rule
	evals map[Site]int64
	fires map[Site]int64
}

// New returns an injector with no rules armed; it fires nothing until
// Arm is called. seed drives every probabilistic rule.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		rules: make(map[Site]*Rule),
		evals: make(map[Site]int64),
		fires: make(map[Site]int64),
	}
}

// Arm installs rule for site, replacing any previous rule. Arming a site
// does not reset its evaluation counter, so scenarios can re-arm
// mid-run.
func (in *Injector) Arm(site Site, rule Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	r := rule
	in.rules[site] = &r
	in.mu.Unlock()
}

// Check evaluates site against its armed rule using the site's own
// evaluation counter. It returns a non-nil *Error if the fault fires.
// Nil-safe: a nil injector never fires.
func (in *Injector) Check(site Site) *Error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals[site]++
	return in.eval(site, in.evals[site])
}

// CheckAt evaluates site with a caller-supplied 1-based sequence number
// instead of the internal counter. Used where the sequence has external
// meaning (the MPI rank id, the multi-GPU device index) so that "rank 2
// fails" is expressible as Rule{At: 3}.
func (in *Injector) CheckAt(site Site, seq int64) *Error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals[site]++
	return in.eval(site, seq)
}

// eval applies the rule for site at sequence seq. Caller holds in.mu.
func (in *Injector) eval(site Site, seq int64) *Error {
	r := in.rules[site]
	if r == nil {
		return nil
	}
	if r.Limit > 0 && in.fires[site] >= r.Limit {
		return nil
	}
	fire := false
	if r.At > 0 && seq == r.At {
		fire = true
	}
	if !fire && r.P > 0 && seq > r.After {
		// Counter-based hashing rather than a shared PRNG stream keeps
		// the decision a pure function of (seed, site, seq): concurrent
		// shards interleave Check calls nondeterministically but each
		// still sees the same coin for the same sequence number.
		fire = coin(in.seed, site, seq) < r.P
	}
	if !fire {
		return nil
	}
	in.fires[site]++
	return &Error{Site: site, Seq: seq}
}

// MemCap returns the armed artificial device-memory cap in bytes, or 0
// if none is armed. Nil-safe.
func (in *Injector) MemCap() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if r := in.rules[SiteGPUMemCap]; r != nil {
		return r.Cap
	}
	return 0
}

// Fires returns how many times site has fired so far.
func (in *Injector) Fires(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[site]
}

// Evals returns how many times site has been evaluated so far.
func (in *Injector) Evals(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.evals[site]
}

// Seed returns the seed driving the injector's coins. Nil-safe (0).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Counters is a portable snapshot of an injector's per-site evaluation
// and fire counts — the complete mutable state of an injector besides
// its rules, which are configuration. Checkpoint/restore uses it to
// resume a run at the exact coin the interrupted run would have flipped
// next.
type Counters struct {
	Evals map[Site]int64
	Fires map[Site]int64
}

// ExportCounters snapshots the injector's counters. Nil-safe (nil).
func (in *Injector) ExportCounters() *Counters {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	c := &Counters{
		Evals: make(map[Site]int64, len(in.evals)),
		Fires: make(map[Site]int64, len(in.fires)),
	}
	for s, v := range in.evals {
		c.Evals[s] = v
	}
	for s, v := range in.fires {
		c.Fires[s] = v
	}
	return c
}

// RestoreCounters overwrites the injector's counters with a snapshot
// taken by ExportCounters. The armed rules are untouched: restoring is
// about where in the coin sequence the run is, not about what can fail.
func (in *Injector) RestoreCounters(c *Counters) {
	if in == nil || c == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals = make(map[Site]int64, len(c.Evals))
	in.fires = make(map[Site]int64, len(c.Fires))
	for s, v := range c.Evals {
		in.evals[s] = v
	}
	for s, v := range c.Fires {
		in.fires[s] = v
	}
}

// Armed reports whether any rule is armed for site. Nil-safe.
func (in *Injector) Armed(site Site) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rules[site] != nil
}

// coin maps (seed, site, seq) to a uniform float64 in [0,1) via
// splitmix64 over a hash of the inputs.
func coin(seed int64, site Site, seq int64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 0x100000001b3
	}
	h ^= uint64(seq) * 0xff51afd7ed558ccd
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// RetryPolicy bounds in-place retries of transient faults. Backoff is
// charged to the modeled clock, so resilience has a visible cost.
type RetryPolicy struct {
	Max        int     // retries after the first attempt (0 = no retries)
	BackoffSec float64 // modeled backoff before the first retry
	Multiplier float64 // backoff growth per retry (exponential)
}

// DefaultRetryPolicy retries transient faults up to 3 times with
// 50 µs exponential backoff — on the scale of a kernel launch, so a
// handful of retries is visible but not dominant on the timeline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Max: 3, BackoffSec: 50e-6, Multiplier: 2}
}

// Backoff returns the modeled backoff in seconds before retry attempt
// (1-based): BackoffSec * Multiplier^(attempt-1).
func (p RetryPolicy) Backoff(attempt int) float64 {
	b := p.BackoffSec
	for i := 1; i < attempt; i++ {
		b *= p.Multiplier
	}
	return b
}
