package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// Report is the exportable form of one run's kernel profile: the
// per-kernel roofline rollups plus the reconciliation pair tying the
// profile back to the run timeline.
type Report struct {
	Schema string `json:"schema"`
	// Machine echoes the roofline parameters the classification used.
	Machine MachineSummary `json:"machine"`
	// Kernels is the per-kernel rollup, sorted by descending seconds.
	Kernels []KernelProfile `json:"kernels"`
	// KernelSeconds is the summed modeled duration of every launch.
	KernelSeconds float64 `json:"kernel_seconds"`
	// GPUTimelineSeconds is the GPU-location portion of the run timeline.
	// In an unfaulted single-GPU run it equals KernelSeconds exactly; a
	// difference is fault-retry time charged outside any launch.
	GPUTimelineSeconds float64 `json:"gpu_timeline_seconds"`
}

// MachineSummary carries the machine parameters a reader of the report
// needs to reproduce the classification.
type MachineSummary struct {
	LaneThroughputOpsPerSec float64 `json:"lane_throughput_ops_per_sec"`
	MemBytesPerSec          float64 `json:"mem_bytes_per_sec"`
	// RidgePointOpsPerByte is the arithmetic intensity at which the
	// roofline's compute and bandwidth ceilings cross.
	RidgePointOpsPerByte float64 `json:"ridge_point_ops_per_byte"`
	LaunchSec            float64 `json:"launch_sec"`
	WarpSize             int     `json:"warp_size"`
}

// NewReport assembles the exportable profile of one run from tracer t:
// the kernel launch spans beneath the run's root span that are not
// auxiliary, classified against machine m. gpuTimelineSeconds is the run
// timeline's GPU portion (Timeline.TotalAt(LocGPU)).
func NewReport(m *perfmodel.Machine, t *obs.Tracer, root *obs.Span, gpuTimelineSeconds float64) *Report {
	kernels, seconds := profiles(m, t, root)
	lane := float64(m.GPU.SMs) * float64(m.GPU.CoresPerSM) * m.GPU.ClockHz
	return &Report{
		Schema: "gpmetis-profile-v1",
		Machine: MachineSummary{
			LaneThroughputOpsPerSec: lane,
			MemBytesPerSec:          m.GPU.MemBytesPerSec,
			RidgePointOpsPerByte:    lane / m.GPU.MemBytesPerSec,
			LaunchSec:               m.GPU.LaunchSec,
			WarpSize:                m.GPU.WarpSize,
		},
		Kernels:            kernels,
		KernelSeconds:      seconds,
		GPUTimelineSeconds: gpuTimelineSeconds,
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// Table renders the top-n kernels (n <= 0 means all) as a human-readable
// roofline table: per kernel, its launches, summed grid size, modeled
// seconds and share of kernel time, the derived ratios, the bound
// classification, and any hints indented beneath.
func (r *Report) Table(n int) string {
	if r == nil {
		return ""
	}
	ks := r.Kernels
	if n > 0 && n < len(ks) {
		ks = ks[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %6s %8s %7s %7s %7s %-8s\n",
		"KERNEL", "LAUNCHES", "THREADS", "SECONDS", "PCT", "COALESC%", "DIVERG", "ATOMSER", "PEAKBW%", "BOUND")
	for i := range ks {
		k := &ks[i]
		var pct float64
		if r.KernelSeconds > 0 {
			pct = 100 * k.Seconds / r.KernelSeconds
		}
		fmt.Fprintf(&b, "%-24s %8d %12d %12.6f %5.1f%% %7.1f%% %7.2f %7.2f %6.1f%% %-8s\n",
			k.Kernel, k.Launches, k.Threads, k.Seconds, pct,
			100*k.CoalescingEfficiency, k.DivergenceFactor,
			k.AtomicSerializationRatio, 100*k.PeakFraction, k.Bound)
		for _, h := range k.Hints {
			fmt.Fprintf(&b, "    hint: %s\n", h)
		}
	}
	fmt.Fprintf(&b, "%-24s %8s %12s %12.6f\n", "TOTAL", "", "", r.KernelSeconds)
	if len(r.Kernels) > len(ks) {
		fmt.Fprintf(&b, "(%d more kernels; see the JSON export)\n", len(r.Kernels)-len(ks))
	}
	return b.String()
}
