// Command gpmetisd is the partition-serving daemon: it accepts
// concurrent partition jobs over HTTP+JSON, runs them through a bounded
// queue onto a pool of modeled GPU devices, and serves repeated requests
// from a content-addressed result cache (see internal/server and
// DESIGN.md §9).
//
// Usage:
//
//	gpmetisd [-addr 127.0.0.1:8080] [-devices 2] [-queue 64] \
//	         [-cache 128] [-deadline 0] [-maxjobs 4096] \
//	         [-journal jobs.jsonl] [-checkpoint-dir ckpt/] \
//	         [-log-level info] [-log-format text] [-drain-timeout 15s] \
//	         [-events 256] [-tenants tenants.json] \
//	         [-debug-addr 127.0.0.1:6060] \
//	         [-peers peers.json -node-id 0] [-vnodes 64] [-cluster-probe 1s] \
//	         [-replicas 2] [-anti-entropy 5s]
//
// API:
//
//	POST   /jobs            submit a job (202 queued, 200 cache hit,
//	                        429 + a typed code when admission refuses it:
//	                        "overloaded" queue full, "tenant_quota" the
//	                        tenant's queued quota is spent, and
//	                        "rate_limited" its token bucket is empty; every
//	                        429 and the draining 503 carry a Retry-After:
//	                        queue depth times mean run time over device
//	                        count, or the time to the next token when
//	                        rate limited)
//	GET    /jobs            list jobs
//	GET    /jobs/{id}       job status; the result once done
//	DELETE /jobs/{id}       cancel a queued or running job
//	GET    /jobs/{id}/trace Chrome trace_event JSON of the job's run
//	GET    /jobs/{id}/profile kernel-level roofline profile, for jobs
//	                        submitted with "profile": true
//	GET    /metrics         Prometheus text exposition: queue depth, wait
//	                        and latency histograms, cache hit rate, jobs
//	                        by outcome, per-slot utilization, build info
//	GET    /healthz         liveness, occupancy, build info
//	GET    /admin/status.json  the ops view's data: queue, jobs by
//	                        outcome, tenants, cache, slots, latency
//	                        quantiles, ring state; gpmetis -top renders it
//	GET    /admin/events    flight recorder: recent lifecycle events
//	POST   /admin/decommission  (ring members) retire this node: push its
//	                        cache to the shrunk ring, announce departure,
//	                        then drain and exit as on SIGTERM
//	POST   /admin/rejoin    (ring members) announce return and pull the
//	                        entries this node now owns (catch-up repair)
//
// Logs are structured (-log-format text|json, -log-level debug..error);
// every job-scoped line carries job_id and trace_id. SIGTERM or SIGINT
// starts a graceful drain: new submissions get 503 code "draining",
// in-flight jobs get up to -drain-timeout to finish, then the journal
// is flushed and the process exits. SIGQUIT dumps the flight recorder
// to stderr without stopping the daemon.
//
// -tenants points at a JSON object mapping tenant names to {"weight",
// "max_queued", "rate_per_sec", "burst"}: the queue is served
// weighted-fair over input size, |V|+|E| (start-time fair queueing),
// so a weight-3 tenant gets 3x the service of a weight-1 tenant under
// saturation while an idle queue serves everyone immediately. Unlisted
// tenants (and jobs submitted without a tenant) run under "default".
//
// A fresh submission that finds the queue full pushes out one queued
// job of a tenant over its weighted share of the queue, provided the
// submitter's own tenant is under its share; otherwise it gets the 429
// "overloaded". The evicted job fails with a retryable "shed: ..."
// error, counted in gpmetisd_jobs_shed and gpmetisd_tenant_shed and
// recorded as a "shed" event in the flight recorder.
//
// -journal makes the daemon durable: every accepted job and its outcome
// is fsynced to the given JSONL file, and a restarted daemon replays it
// — completed results are served from the rebuilt cache, interrupted
// jobs are re-admitted under their original IDs. -checkpoint-dir makes
// single-device gp jobs snapshot at every level boundary so re-admitted
// jobs resume mid-run instead of starting over. A journal or checkpoint
// write failure costs durability, never availability: the daemon logs
// once, flips journal.degraded/checkpoint.degraded in /metrics, and
// keeps serving.
//
// Submit with the gpmetis client (gpmetis -server http://...) or curl:
//
//	curl -s -X POST localhost:8080/jobs \
//	     -d "{\"graph\": $(jq -Rs . < graph.metis), \"k\": 64}"
//
// The daemon passes -addr to net.Listen verbatim, so -addr 127.0.0.1:0
// picks a random free port; the chosen address is printed on startup.
//
// -peers and -node-id turn the daemon into one member of a gossip-free
// cluster ring (DESIGN.md §14): peers.json lists every node's id and
// host:port, and submissions are routed by consistent hashing on the
// job's content digest — identical submissions land on the node that
// already caches them, non-owned submissions are forwarded after a
// cross-node cache peek, and a down owner fails over to the next live
// ring successor. Ring state appears on /healthz and /admin/status.json, and
// routing counters as gpmetisd_cluster_* on /metrics. Every node of the
// ring must run with the same peers.json and -vnodes.
//
// Ring durability (DESIGN.md §15): -replicas R (default 2) pushes every
// freshly completed result to the next R−1 ring successors, so a dead
// owner's cached work is served bit-identically from a replica instead
// of recomputed. Pushes to quarantined peers are skipped; when the
// prober reinstates a peer it runs one anti-entropy summary exchange
// with it, which delivers what it missed, and a background sweep
// (-anti-entropy, negative to disable) repeats that exchange with every
// peer to repair any other divergence. On startup a ring member
// announces itself and pulls the entries it now owns (rejoin catch-up).
// POST /admin/decommission retires a node safely: it pushes its cache
// to the shrunk ring's owners, announces departure to every peer, then
// drains and exits exactly as on SIGTERM; POST /admin/rejoin
// re-announces and re-runs catch-up on demand.
// SIGHUP reloads -peers, applying membership changes without a restart.
//
// Cluster observability (DESIGN.md §16): a ring forward carries the
// entry node's trace context in its submission body, so a job
// submitted to a non-owner node keeps one trace id end to end —
// GET /jobs/{id}/trace on the entry node returns a single Chrome trace
// document with one pid per node, the owner's spans parented under
// the entry node's cluster-forward span. GET /admin/cluster/status.json
// fans out to every live peer and returns the whole fleet in one
// document (gpmetis -top -cluster renders it), and per-peer RPC
// latency/error histograms appear as gpmetisd_cluster_rpc_* on
// /metrics alongside the modeled α+βn network charge.
//
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/ (goroutine dumps, heap and CPU profiles of the daemon
// process itself — wall-clock profiling, distinct from the modeled
// kernel profiles at /jobs/{id}/profile). It is off by default and
// should stay on a loopback or otherwise private address: the pprof
// endpoints expose internals and are not meant for untrusted networks.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpmetis/internal/cluster"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a random port)")
	devices := flag.Int("devices", 2, "modeled GPU device slots: jobs running concurrently")
	queueCap := flag.Int("queue", 64, "job queue capacity; submissions beyond it get 429")
	cacheCap := flag.Int("cache", 128, "result cache capacity in entries (-1 disables)")
	deadline := flag.Duration("deadline", 0, "default per-job deadline, e.g. 30s (0 = unbounded)")
	maxJobs := flag.Int("maxjobs", 4096, "retained job statuses before the oldest terminal jobs are forgotten")
	journal := flag.String("journal", "", "durable job journal (JSONL); replayed on restart")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-job crash-recovery checkpoints")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", obs.LogText, "log encoding: text or json")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight jobs on SIGTERM")
	eventBuf := flag.Int("events", 256, "lifecycle flight-recorder capacity (recent events retained)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this private address (empty = off)")
	tenantsFile := flag.String("tenants", "", "JSON file of per-tenant weights, queue quotas, and rate limits")
	peersFile := flag.String("peers", "", "cluster peers.json; joins the ring described in it")
	nodeID := flag.Int("node-id", -1, "this node's id in -peers (required with -peers)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per ring member (0 = default, must match across the ring)")
	clusterProbe := flag.Duration("cluster-probe", 0, "peer health-probe interval (0 = default 1s)")
	replicas := flag.Int("replicas", 0, "cluster replication factor (0 = default 2, 1 disables replication)")
	antiEntropy := flag.Duration("anti-entropy", 0, "anti-entropy repair sweep interval (0 = default 5s, negative disables)")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmetisd:", err)
		os.Exit(2)
	}
	if !obs.ValidLogFormat(*logFormat) {
		fmt.Fprintf(os.Stderr, "gpmetisd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, level)

	var tenants server.TenantsConfig
	if *tenantsFile != "" {
		tenants, err = server.LoadTenantsFile(*tenantsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmetisd:", err)
			os.Exit(2)
		}
	}

	// A ring member namespaces its job IDs so they are unique cluster-wide
	// and entry nodes can proxy forwarded jobs without ID collisions.
	idPrefix := ""
	if *peersFile != "" && *nodeID >= 0 {
		idPrefix = fmt.Sprintf("n%d-j", *nodeID)
	}

	s := server.New(server.Config{
		JobIDPrefix:     idPrefix,
		Devices:         *devices,
		QueueCap:        *queueCap,
		CacheCap:        *cacheCap,
		DefaultDeadline: *deadline,
		MaxJobs:         *maxJobs,
		JournalPath:     *journal,
		CheckpointDir:   *ckptDir,
		Logger:          logger,
		EventBuffer:     *eventBuf,
		Tenants:         tenants,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpmetisd:", err)
		os.Exit(1)
	}
	durable := "none"
	if *journal != "" {
		durable = *journal
	}
	fmt.Printf("gpmetisd: listening on http://%s (devices=%d queue=%d cache=%d journal=%s)\n",
		ln.Addr(), *devices, *queueCap, *cacheCap, durable)

	// -peers wraps the handler in the cluster routing tier: this node owns
	// its ring share and forwards the rest, peeking peer caches first.
	handler := http.Handler(s.Handler())
	var node *cluster.Node
	// A decommission request funnels into the same drain path as SIGTERM;
	// the buffered channel makes the callback non-blocking and idempotent.
	decommissioned := make(chan struct{}, 1)
	if *peersFile != "" {
		peers, err := cluster.LoadPeersFile(*peersFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmetisd:", err)
			os.Exit(2)
		}
		node, err = cluster.New(cluster.Config{
			NodeID:              *nodeID,
			Peers:               peers,
			VNodes:              *vnodes,
			Server:              s,
			ProbeInterval:       *clusterProbe,
			Logger:              logger,
			Replicas:            *replicas,
			AntiEntropyInterval: *antiEntropy,
			OnDecommission: func() {
				select {
				case decommissioned <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmetisd:", err)
			os.Exit(2)
		}
		handler = node.Handler(handler)
		fmt.Printf("gpmetisd: cluster node %d of %d-node ring (peers=%s); fleet view at /admin/cluster/status.json\n",
			*nodeID, len(peers), *peersFile)
	} else if *nodeID >= 0 {
		fmt.Fprintln(os.Stderr, "gpmetisd: -node-id requires -peers")
		os.Exit(2)
	}

	// The pprof listener is separate from the API listener so operators
	// can keep it loopback-only while the API serves the network. The
	// default ServeMux is avoided on both: the debug mux carries exactly
	// the pprof handlers and nothing else.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpmetisd: debug listener:", err)
			os.Exit(1)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		fmt.Printf("gpmetisd: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go debugSrv.Serve(dln)
	}

	httpSrv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	if node != nil {
		// Rejoin catch-up: announce this node to its peers and pull the
		// entries it now owns or replicates. Runs after the listener is up
		// so peers can push back immediately; harmless on a cold ring.
		go func() {
			if pulled := node.Rejoin(); pulled > 0 {
				logger.Info("rejoin catch-up complete", "entries_pulled", pulled)
			}
		}()
		// SIGHUP reloads the peers file: membership changes apply to the
		// live ring without restarting the daemon.
		hupc := make(chan os.Signal, 1)
		signal.Notify(hupc, syscall.SIGHUP)
		go func() {
			for range hupc {
				peers, err := cluster.LoadPeersFile(*peersFile)
				if err != nil {
					logger.Error("SIGHUP: peers reload failed", "error", err.Error())
					continue
				}
				if err := node.UpdatePeers(peers); err != nil {
					logger.Error("SIGHUP: peer update rejected", "error", err.Error())
					continue
				}
				logger.Info("SIGHUP: peers reloaded", "members", len(peers))
			}
		}()
	}

	// SIGQUIT is the non-fatal post-mortem trigger: dump the flight
	// recorder to stderr and keep serving.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			logger.Info("SIGQUIT: dumping flight recorder to stderr")
			if err := s.DumpEvents(os.Stderr); err != nil {
				logger.Error("flight recorder dump failed", "error", err.Error())
			}
		}
	}()

	// Graceful drain: stop admitting (submits now get 503 while the
	// listener stays up so pollers can still fetch results), give
	// in-flight jobs the drain budget, then tear the listener down
	// and flush the journal.
	drainAndExit := func(cause string) {
		logger.Info(cause+"; draining", "drain_timeout", drainTimeout.String())
		drained, aborted := s.Drain(*drainTimeout)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		if debugSrv != nil {
			debugSrv.Shutdown(shutCtx)
		}
		if node != nil {
			node.Close()
		}
		s.Close()
		logger.Info("shutdown complete", "drained", drained, "aborted", aborted)
	}

	select {
	case <-ctx.Done():
		drainAndExit("shutdown signal received")
	case <-decommissioned:
		drainAndExit("decommission requested")
	case err := <-errc:
		logger.Error("listener failed", "error", err.Error())
		if node != nil {
			node.Close()
		}
		s.Close()
		os.Exit(1)
	}
}
