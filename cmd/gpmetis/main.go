// Command gpmetis partitions a graph in Chaco/Metis format with any of
// the bundled partitioners and writes the partition vector (one partition
// id per line, in vertex order), plus a summary of cut, balance, and
// modeled runtime on stderr.
//
// Usage:
//
//	gpmetis -k 64 [-algo gp|metis|mt|par|ptscotch|gmetis|jostle|spectral] \
//	        [-ub 1.03] [-seed 1] [-o out.part] [-json] \
//	        [-server http://host:port] [-retries 3] \
//	        [-checkpoint-dir ckpt/] \
//	        [-trace trace.json] [-metrics metrics.json] [-report] \
//	        [-profile] [-profile-top 12] [-profile-json profile.json] \
//	        [-faults scenario] [-faultseed n] [-verify] [-degrade=false] \
//	        graph.metis|graph.gr
//
// -server submits the job to a running gpmetisd daemon instead of
// partitioning in-process: the graph is posted to /jobs, polled to
// completion, and the result (possibly a cache hit) is printed exactly
// like a local run. When the daemon answers 429 (queue full) the client
// honors its Retry-After and re-submits up to -retries times with
// jittered exponential backoff. -trace downloads the job's trace from
// the daemon; -metrics and -report need the in-process tracer and are
// local-only.
//
// -checkpoint-dir (local gp runs) snapshots the run at every level
// boundary under <dir>/<input>.k<k>.s<seed>.ckpt. Rerunning the same
// command after an interruption resumes from the snapshot and produces
// the bit-identical partition, edge cut, and modeled seconds; a
// completed run deletes its snapshot. A snapshot that does not match
// the graph or options is discarded with a warning.
//
// -json replaces the human summary with one machine-readable JSON object
// on stdout (input, algo, k, edge cut, imbalance, modeled seconds,
// degraded reason, cache/job metadata in server mode). With -json the
// partition vector is written only when -o is given, so stdout stays
// pure JSON.
//
// Exit status: 0 on success, 1 on error, 2 on usage, and 3 when the run
// finished but degraded to the CPU pipeline (Result.Degraded) even
// though -degrade=false asked for failures instead.
//
// -trace writes a Chrome trace_event JSON of the run's span tree over the
// modeled clock (open in chrome://tracing or ui.perfetto.dev); -metrics
// writes a flat JSON metrics report; -report prints a per-level table on
// stderr. All three are available for the gp and mt algorithms.
//
// -profile (gp only) turns on the kernel-level profiler: the run rolls
// the trace span of every kernel launch up per kernel and prints the top
// -profile-top kernels as a roofline table on stderr — modeled seconds,
// coalescing efficiency, warp divergence, atomic serialization, achieved
// bandwidth, the dominant cost-model term, and rule-derived optimization
// hints. -profile-json writes the full report (per-kernel rollups,
// machine roofline parameters, reconciliation against the GPU timeline)
// as JSON and implies profiling. Both work with -server too: the job is
// submitted with profiling on and the report is downloaded from the
// daemon.
//
// -faults injects deterministic failures into the modeled substrate; a
// scenario is ';'-separated site:key=val[,key=val] entries, e.g.
//
//	gpmetis -k 64 -faults 'gpu.memcap:cap=64M;pcie.transfer:p=0.01' graph.metis
//
// Sites: gpu.alloc, gpu.memcap, gpu.kernel, pcie.transfer,
// multigpu.device, mpi.rank, contract.hash. -faultseed seeds the fault
// coins independently of -seed (default: same as -seed). -verify checks
// partition and coarsening invariants at every level boundary. -degrade
// (on by default) lets GP-metis fall back to the CPU pipeline when the
// GPU fails; -degrade=false turns capacity faults into errors.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpmetis"
)

// outcome is the algorithm-independent result of one run, local or
// remote, from which the vector, the summary, and the exit code derive.
type outcome struct {
	Input          string  `json:"input"`
	Algo           string  `json:"algo"`
	K              int     `json:"k"`
	EdgeCut        int     `json:"edge_cut"`
	Imbalance      float64 `json:"imbalance"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	ConflictRate   float64 `json:"match_conflict_rate,omitempty"`
	FaultEvents    int     `json:"fault_events,omitempty"`
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	// Server-mode metadata.
	Server string `json:"server,omitempty"`
	JobID  string `json:"job_id,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	part         []int
	hasConflicts bool
}

func main() {
	k := flag.Int("k", 64, "number of partitions")
	algo := flag.String("algo", "gp", "partitioner: gp, metis, mt, par, ptscotch, gmetis, jostle, or spectral")
	ub := flag.Float64("ub", 1.03, "allowed imbalance factor")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("o", "", "output file for the partition vector (default stdout)")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON on stdout (vector only with -o)")
	serverURL := flag.String("server", "", "submit to a gpmetisd daemon at this base URL instead of running locally")
	clusterHosts := flag.String("cluster", "", "comma-separated gpmetisd ring members (host:port); submit to the first live node, failing over down the list")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run (gp/mt)")
	metricsOut := flag.String("metrics", "", "write a flat JSON metrics report (gp/mt, local only)")
	report := flag.Bool("report", false, "print a per-level table on stderr (gp/mt, local only)")
	profile := flag.Bool("profile", false, "print a per-kernel roofline table on stderr (gp)")
	profileTop := flag.Int("profile-top", 12, "kernels shown in the -profile table (0 = all)")
	profileJSON := flag.String("profile-json", "", "write the full kernel profile as JSON (gp; implies profiling)")
	faults := flag.String("faults", "", "fault scenario, e.g. 'gpu.memcap:cap=64M;pcie.transfer:p=0.01'")
	faultSeed := flag.Int64("faultseed", 0, "seed for fault injection coins (default: -seed)")
	verify := flag.Bool("verify", false, "check partition invariants at every level boundary (gp/mt)")
	degrade := flag.Bool("degrade", true, "fall back to the CPU pipeline on GPU failure (gp)")
	ckptDir := flag.String("checkpoint-dir", "", "snapshot gp runs here and auto-resume an interrupted run (local only)")
	retries := flag.Int("retries", 3, "with -server: re-submissions after a 429, honoring Retry-After with backoff")
	tenant := flag.String("tenant", "", "with -server: tenant name for multi-tenant fair queueing (default: the daemon's default tenant)")
	deadlineMs := flag.Int64("deadline-ms", 0, "with -server: job deadline in milliseconds (0 = daemon default); a job still queued or running when it passes fails with deadline exceeded")
	top := flag.Bool("top", false, "with -server: live terminal ops view of the daemon; with -cluster: the federated fleet view (no graph argument)")
	topInterval := flag.Duration("top-interval", 2*time.Second, "refresh interval for -top")
	topIterations := flag.Int("top-iterations", 0, "frames -top draws before exiting (0 = until interrupted)")
	flag.Parse()

	if *top {
		switch {
		case *serverURL != "" && *clusterHosts != "":
			fail(fmt.Errorf("-server and -cluster are mutually exclusive; -cluster is a member list, -server a single daemon"))
		case *clusterHosts != "":
			bases := clusterBases(*clusterHosts)
			if len(bases) == 0 {
				fail(fmt.Errorf("-cluster lists no hosts"))
			}
			if err := runFleetTop(bases, *topInterval, *topIterations); err != nil {
				fail(err)
			}
		case *serverURL != "":
			if err := runTop(strings.TrimRight(*serverURL, "/"), *topInterval, *topIterations); err != nil {
				fail(err)
			}
		default:
			fail(fmt.Errorf("-top polls a daemon; it needs -server http://host:port or -cluster host:port,..."))
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gpmetis [flags] graph.metis")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *faultSeed == 0 {
		*faultSeed = *seed
	}

	var (
		oc  *outcome
		err error
	)
	prof := profileArgs{enabled: *profile || *profileJSON != "", top: *profileTop, jsonOut: *profileJSON, table: *profile}
	if prof.enabled && *algo != "gp" {
		fail(fmt.Errorf("-profile records kernel launches and needs the gp algorithm, not %q", *algo))
	}
	if *serverURL != "" && *clusterHosts != "" {
		fail(fmt.Errorf("-server and -cluster are mutually exclusive; -cluster is a member list, -server a single daemon"))
	}
	if *serverURL != "" || *clusterHosts != "" {
		if *metricsOut != "" || *report {
			fail(fmt.Errorf("-metrics and -report need the in-process tracer; use them without -server"))
		}
		bases := []string{strings.TrimRight(*serverURL, "/")}
		if *clusterHosts != "" {
			bases = clusterBases(*clusterHosts)
			if len(bases) == 0 {
				fail(fmt.Errorf("-cluster lists no hosts"))
			}
		}
		oc, err = runRemote(remoteArgs{
			bases: bases, path: flag.Arg(0),
			k: *k, algo: *algo, ub: *ub, seed: *seed,
			faults: *faults, faultSeed: *faultSeed,
			degrade: *degrade, verify: *verify, traceOut: *traceOut,
			prof:       prof,
			retries:    *retries,
			tenant:     *tenant,
			deadlineMs: *deadlineMs,
		})
	} else {
		oc, err = runLocal(*k, *algo, *ub, *seed, *faults, *faultSeed,
			*degrade, *verify, *traceOut, *metricsOut, *report, *ckptDir, prof)
	}
	if err != nil {
		fail(err)
	}

	// Partition vector: stdout by default; with -json, only to -o so
	// stdout stays machine-readable.
	if *out != "" || !*jsonOut {
		dst := os.Stdout
		if *out != "" {
			dst, err = os.Create(*out)
			if err != nil {
				fail(err)
			}
			defer dst.Close()
		}
		w := bufio.NewWriter(dst)
		for _, p := range oc.part {
			fmt.Fprintln(w, p)
		}
		if err := w.Flush(); err != nil {
			fail(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(oc); err != nil {
			fail(err)
		}
	} else {
		fmt.Fprintln(os.Stderr, oc.summaryLine())
	}

	// A degraded run when the caller explicitly opted out of degradation
	// still produced a valid partition, but must be visible to scripts.
	if oc.Degraded && !*degrade {
		os.Exit(3)
	}
}

// profileArgs bundles the kernel-profiling flags: whether profiling is
// on at all, whether the roofline table goes to stderr, how many kernels
// it shows, and where (if anywhere) the JSON report lands.
type profileArgs struct {
	enabled bool
	table   bool
	top     int
	jsonOut string
}

// emit renders a completed run's profile per the flags.
func (pa profileArgs) emit(rep *gpmetis.ProfileReport) error {
	if rep == nil {
		return nil
	}
	if pa.table {
		fmt.Fprint(os.Stderr, rep.Table(pa.top))
	}
	if pa.jsonOut != "" {
		return writeFile(pa.jsonOut, func(w *bufio.Writer) error { return rep.WriteJSON(w) })
	}
	return nil
}

// runLocal partitions in-process, exactly as before the daemon existed.
// With checkpointDir set (gp only), the run snapshots at every level
// boundary under a name derived from the input, k, and seed; a later
// invocation of the same run finds the snapshot and resumes from it
// bit-identically, and a completed run removes it.
func runLocal(k int, algoName string, ub float64, seed int64, faults string, faultSeed int64,
	degrade, verify bool, traceOut, metricsOut string, report bool, checkpointDir string,
	prof profileArgs) (*outcome, error) {
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var g *gpmetis.Graph
	if strings.HasSuffix(path, ".gr") {
		g, err = gpmetis.ReadGraphGR(f) // DIMACS9 road-network format
	} else {
		g, err = gpmetis.ReadGraph(f) // Chaco/Metis format
	}
	f.Close()
	if err != nil {
		return nil, err
	}

	a, err := parseAlgo(algoName)
	if err != nil {
		return nil, err
	}
	var tracer *gpmetis.Tracer
	if traceOut != "" || metricsOut != "" || report {
		tracer = gpmetis.NewTracer()
	}
	injector, err := gpmetis.ParseFaultScenario(faultSeed, faults)
	if err != nil {
		return nil, err
	}

	o := gpmetis.Options{
		Algorithm: a,
		Seed:      seed,
		UBFactor:  ub,
		Tracer:    tracer,
		Profile:   prof.enabled,
		Faults:    injector,
		Degrade:   degrade,
		Verify:    verify,
	}
	var ckptPath string
	if checkpointDir != "" && a == gpmetis.GPMetis {
		ckptPath = filepath.Join(checkpointDir,
			fmt.Sprintf("%s.k%d.s%d.ckpt", filepath.Base(path), k, seed))
		if c, rerr := gpmetis.ReadCheckpointFile(ckptPath); rerr == nil {
			o.Resume = c
			fmt.Fprintf(os.Stderr, "gpmetis: resuming from %s (%s)\n", ckptPath, c.Describe())
		} else if !errors.Is(rerr, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "gpmetis: ignoring unreadable checkpoint %s: %v\n", ckptPath, rerr)
		}
		warned := false
		o.Checkpoint = func(c *gpmetis.Checkpoint) error {
			if werr := gpmetis.WriteCheckpointFile(ckptPath, c); werr != nil {
				// Durability degradation: keep computing, warn once.
				if !warned {
					warned = true
					fmt.Fprintf(os.Stderr, "gpmetis: checkpointing disabled: %v\n", werr)
				}
			}
			return nil
		}
	}

	res, err := gpmetis.Partition(g, k, o)
	if err != nil && o.Resume != nil &&
		(errors.Is(err, gpmetis.ErrCheckpointMismatch) || errors.Is(err, gpmetis.ErrCheckpointCorrupt)) {
		// A snapshot from a different graph/options (or a damaged one)
		// must never block the run: drop it and start from scratch.
		fmt.Fprintf(os.Stderr, "gpmetis: checkpoint %s is stale; rerunning from scratch\n", ckptPath)
		o.Resume = nil
		res, err = gpmetis.Partition(g, k, o)
	}
	if err != nil {
		return nil, err
	}
	if ckptPath != "" {
		os.Remove(ckptPath) // the run is done; the snapshot is dead weight
	}

	if traceOut != "" {
		if err := writeFile(traceOut, func(w *bufio.Writer) error {
			return gpmetis.WriteChromeTrace(w, tracer)
		}); err != nil {
			return nil, err
		}
	}
	if metricsOut != "" {
		extra := map[string]any{
			"edge_cut":            res.EdgeCut,
			"modeled_seconds":     res.ModeledSeconds,
			"imbalance":           gpmetis.Imbalance(g, res.Part, k),
			"match_conflict_rate": res.MatchConflictRate(),
		}
		if err := writeFile(metricsOut, func(w *bufio.Writer) error {
			return gpmetis.WriteMetricsJSON(w, tracer, extra)
		}); err != nil {
			return nil, err
		}
	}
	if report {
		fmt.Fprint(os.Stderr, gpmetis.LevelTable(tracer))
	}
	if err := prof.emit(res.Profile); err != nil {
		return nil, err
	}

	return &outcome{
		Input:          path,
		Algo:           a.String(),
		K:              k,
		EdgeCut:        res.EdgeCut,
		Imbalance:      gpmetis.Imbalance(g, res.Part, k),
		ModeledSeconds: res.ModeledSeconds,
		ConflictRate:   res.MatchConflictRate(),
		FaultEvents:    len(res.FaultEvents),
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
		part:           res.Part,
		hasConflicts:   res.MatchAttempts > 0,
	}, nil
}

// parseAlgo maps the CLI algorithm names onto the library enum.
func parseAlgo(name string) (gpmetis.Algorithm, error) {
	switch name {
	case "gp":
		return gpmetis.GPMetis, nil
	case "metis":
		return gpmetis.Metis, nil
	case "mt":
		return gpmetis.MtMetis, nil
	case "par":
		return gpmetis.ParMetis, nil
	case "ptscotch":
		return gpmetis.PTScotch, nil
	case "gmetis":
		return gpmetis.Gmetis, nil
	case "jostle":
		return gpmetis.Jostle, nil
	case "spectral":
		return gpmetis.Spectral, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want gp, metis, mt, par, ptscotch, gmetis, jostle, or spectral)", name)
	}
}

// summaryLine renders the classic one-line stderr summary.
func (oc *outcome) summaryLine() string {
	where := oc.Input
	if oc.Server != "" {
		where = fmt.Sprintf("%s@%s[%s]", oc.Input, oc.Server, oc.JobID)
	}
	s := fmt.Sprintf("%s: %s k=%d cut=%d imbalance=%.4f modeled=%.3fs",
		where, oc.Algo, oc.K, oc.EdgeCut, oc.Imbalance, oc.ModeledSeconds)
	if oc.hasConflicts {
		s += fmt.Sprintf(" conflict_rate=%.2f%%", 100*oc.ConflictRate)
	}
	if oc.Cached {
		s += " CACHED"
	}
	if oc.FaultEvents > 0 {
		s += fmt.Sprintf(" fault_events=%d", oc.FaultEvents)
	}
	if oc.Degraded {
		s += fmt.Sprintf(" DEGRADED(%s)", oc.DegradedReason)
	}
	return s
}

// writeFile creates path and streams fn's output through a buffered writer.
func writeFile(path string, fn func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fn(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gpmetis:", err)
	os.Exit(1)
}
