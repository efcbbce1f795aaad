// Package perfmodel defines the modeled heterogeneous machine that every
// partitioner in this repository charges its work against.
//
// The reproduction runs on arbitrary hosts (including single-core
// containers), so wall-clock time cannot express the parallel behaviour the
// paper measures on an 8-core Xeon E5540 + GTX Titan system. Instead, all
// partitioners execute their algorithms for real — producing real
// partitions and edge cuts — while charging abstract work units (compute
// operations, random and sequential memory traffic, atomics, messages,
// transfers) to a shared Machine. The Machine converts charged work into
// modeled seconds using hardware parameters chosen to resemble the paper's
// testbed. Comparative results (who is faster, by what factor) therefore
// depend only on the algorithms' work, imbalance, and communication
// structure, which this reproduction preserves exactly.
package perfmodel

import "fmt"

// CPUParams models a multicore CPU (paper: Intel Xeon E5540, 8 cores).
type CPUParams struct {
	// Cores is the number of physical cores available to CPU partitioners.
	Cores int
	// ClockHz is the core clock frequency.
	ClockHz float64
	// IPC is the average instructions retired per cycle for the pointer-
	// chasing integer code that dominates graph partitioning.
	IPC float64
	// RandAccessSec is the average cost of one cache-missing random memory
	// access (seconds). Irregular graph codes are dominated by this term.
	RandAccessSec float64
	// SeqBytesPerSec is the streaming memory bandwidth available to one
	// core for sequential access (bytes/second).
	SeqBytesPerSec float64
	// BarrierSec is the cost of one synchronization barrier among all
	// participating threads.
	BarrierSec float64
	// AtomicSec is the cost of one contended atomic read-modify-write.
	AtomicSec float64
}

// MaxWarpSize is the widest warp the kernel simulator can account: its
// per-warp coalescing table holds one segment per lane.
const MaxWarpSize = 32

// GPUParams models a discrete GPU (paper: NVIDIA GeForce GTX Titan).
type GPUParams struct {
	// SMs is the number of streaming multiprocessors.
	SMs int
	// WarpSize is the number of lanes that execute in lockstep, at most
	// MaxWarpSize.
	WarpSize int
	// WarpSlotsPerSM is how many warps an SM can have in flight; together
	// with SMs it bounds the device's latency-hiding parallelism.
	WarpSlotsPerSM int
	// CoresPerSM is the number of scalar lanes per SM, bounding the
	// device's instruction throughput.
	CoresPerSM int
	// ClockHz is the SM clock frequency.
	ClockHz float64
	// TransactionBytes is the global-memory transaction granularity used
	// for coalescing: accesses by a warp that fall into one aligned
	// segment of this size cost a single transaction.
	TransactionBytes int
	// MemBytesPerSec is the aggregate global-memory bandwidth the model
	// charges transactions against. The default uses the ~60% of the
	// GTX Titan's 288 GB/s peak that irregular transaction mixes sustain
	// in practice, rather than the peak streaming figure.
	MemBytesPerSec float64
	// MemLatencySec is the latency of one global-memory transaction when
	// not hidden by other warps; the simulator charges a fraction of it
	// depending on occupancy.
	MemLatencySec float64
	// AtomicSec is the serialization cost of one global atomic per
	// conflicting address.
	AtomicSec float64
	// LaunchSec is the fixed host-side cost of launching one kernel.
	LaunchSec float64
	// GlobalMemBytes is the device memory capacity (paper: 6 GB GDDR5).
	// Partitioning fails, as in the paper, if the graph does not fit.
	GlobalMemBytes int64
}

// PCIeParams models the host-device interconnect.
type PCIeParams struct {
	// BytesPerSec is the sustained transfer bandwidth.
	BytesPerSec float64
	// LatencySec is the fixed per-transfer setup latency.
	LatencySec float64
}

// NetParams models the cluster interconnect used by the distributed
// (ParMetis-style) partitioner, as a standard alpha-beta model.
type NetParams struct {
	// LatencySec is alpha: fixed per-message latency.
	LatencySec float64
	// BytesPerSec is 1/beta: point-to-point bandwidth.
	BytesPerSec float64
}

// Machine aggregates the modeled hardware. A single Machine value is shared
// by every partitioner in one experiment so that their modeled times are
// directly comparable.
type Machine struct {
	CPU  CPUParams
	GPU  GPUParams
	PCIe PCIeParams
	Net  NetParams
}

// Default returns a Machine resembling the paper's testbed: an 8-core
// 2.53 GHz Xeon E5540 host, a GTX Titan (14 SMs, 876 MHz, 288 GB/s, 6 GB),
// PCIe 2.0 x16, and a commodity-cluster interconnect for the MPI model.
func Default() *Machine {
	return &Machine{
		CPU: CPUParams{
			Cores:          8,
			ClockHz:        2.53e9,
			IPC:            1.2,
			RandAccessSec:  30e-9,
			SeqBytesPerSec: 4.0e9,
			BarrierSec:     2e-6,
			AtomicSec:      20e-9,
		},
		GPU: GPUParams{
			SMs:              14,
			WarpSize:         32,
			WarpSlotsPerSM:   20,
			CoresPerSM:       192,
			ClockHz:          876e6,
			TransactionBytes: 128,
			MemBytesPerSec:   170e9,
			MemLatencySec:    700e-9,
			AtomicSec:        50e-9,
			LaunchSec:        8e-6,
			GlobalMemBytes:   6 << 30,
		},
		PCIe: PCIeParams{
			BytesPerSec: 6.0e9,
			LatencySec:  12e-6,
		},
		Net: NetParams{
			LatencySec:  20e-6,
			BytesPerSec: 500e6, // single-node MPI over shared memory
		},
	}
}

// Validate reports an error when a Machine has non-positive parameters that
// would make modeled times meaningless (zero clocks, zero bandwidth, ...).
func (m *Machine) Validate() error {
	switch {
	case m.CPU.Cores <= 0:
		return fmt.Errorf("perfmodel: CPU.Cores must be positive, got %d", m.CPU.Cores)
	case m.CPU.ClockHz <= 0 || m.CPU.IPC <= 0:
		return fmt.Errorf("perfmodel: CPU clock/IPC must be positive")
	case m.CPU.SeqBytesPerSec <= 0 || m.CPU.RandAccessSec <= 0:
		return fmt.Errorf("perfmodel: CPU memory parameters must be positive")
	case m.GPU.SMs <= 0 || m.GPU.WarpSize <= 0 || m.GPU.WarpSlotsPerSM <= 0 || m.GPU.CoresPerSM <= 0:
		return fmt.Errorf("perfmodel: GPU geometry must be positive")
	case m.GPU.WarpSize > MaxWarpSize:
		return fmt.Errorf("perfmodel: GPU.WarpSize %d exceeds the simulator's maximum of %d", m.GPU.WarpSize, MaxWarpSize)
	case m.GPU.ClockHz <= 0 || m.GPU.MemBytesPerSec <= 0 || m.GPU.TransactionBytes <= 0:
		return fmt.Errorf("perfmodel: GPU clock/memory parameters must be positive")
	case m.GPU.GlobalMemBytes <= 0:
		return fmt.Errorf("perfmodel: GPU.GlobalMemBytes must be positive")
	case m.PCIe.BytesPerSec <= 0:
		return fmt.Errorf("perfmodel: PCIe.BytesPerSec must be positive")
	case m.Net.BytesPerSec <= 0:
		return fmt.Errorf("perfmodel: Net.BytesPerSec must be positive")
	}
	return nil
}

// CPUOpSec returns the modeled seconds for n simple CPU operations on one
// core (no memory-system effects; add those via CPURandSec/CPUSeqSec).
func (m *Machine) CPUOpSec(n float64) float64 {
	return n / (m.CPU.ClockHz * m.CPU.IPC)
}

// CPURandSec returns the modeled seconds for n cache-missing random memory
// accesses issued by one core.
func (m *Machine) CPURandSec(n float64) float64 {
	return n * m.CPU.RandAccessSec
}

// CPUSeqSec returns the modeled seconds for streaming n bytes sequentially
// through one core.
func (m *Machine) CPUSeqSec(bytes float64) float64 {
	return bytes / m.CPU.SeqBytesPerSec
}

// PCIeSec returns the modeled seconds to move n bytes across PCIe,
// including the fixed transfer latency.
func (m *Machine) PCIeSec(bytes float64) float64 {
	return m.PCIe.LatencySec + bytes/m.PCIe.BytesPerSec
}

// NetMsgSec returns the modeled seconds for one point-to-point message of n
// bytes under the alpha-beta model.
func (m *Machine) NetMsgSec(bytes float64) float64 {
	return m.Net.LatencySec + bytes/m.Net.BytesPerSec
}
