package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// Defaults for the cluster tier's knobs.
const (
	// DefaultProbeInterval is how often the background prober checks every
	// peer's /healthz.
	DefaultProbeInterval = time.Second
	// DefaultStrikeThreshold is how many consecutive failures (probes or
	// request-path connection errors) mark a peer down.
	DefaultStrikeThreshold = 2
	// DefaultReplicas is the replication factor: each completed result
	// lives on its ring owner plus the next R−1 distinct successors.
	DefaultReplicas = 2
	// DefaultAntiEntropyInterval is the cadence of the background digest
	// summary exchange that repairs replica divergence.
	DefaultAntiEntropyInterval = 5 * time.Second
)

// Config wires one ring node.
type Config struct {
	// NodeID is this node's identity; it must appear in Peers.
	NodeID int
	// Peers is the full member list (see LoadPeersFile). Every node of the
	// ring must load the same list.
	Peers []Peer
	// VNodes is the per-peer virtual node count; 0 means DefaultVNodes.
	VNodes int
	// Server is the local serving subsystem this node routes into.
	Server *server.Server
	// Machine supplies the α+βn network parameters inter-node traffic is
	// charged against; nil means gpmetis.DefaultMachine().
	Machine *gpmetis.Machine
	// ProbeInterval is the health-probe cadence (0 means
	// DefaultProbeInterval; < 0 disables the prober, for tests that drive
	// health by hand).
	ProbeInterval time.Duration
	// StrikeThreshold is how many consecutive failures mark a peer down
	// (0 means DefaultStrikeThreshold).
	StrikeThreshold int
	// Logger receives the node's operational logs; nil means a text
	// handler on os.Stderr.
	Logger *slog.Logger
	// Client performs forwards, peeks, and proxies; nil means a client
	// with a 15s timeout.
	Client *http.Client
	// Replicas is the replication factor: completed results are pushed
	// asynchronously to the next Replicas−1 live ring successors. 0 means
	// DefaultReplicas; 1 disables replication.
	Replicas int
	// AntiEntropyInterval is the cadence of the background repair sweep
	// (0 means DefaultAntiEntropyInterval; < 0 disables the loop, for
	// tests that call AntiEntropyNow by hand).
	AntiEntropyInterval time.Duration
	// OnDecommission, when non-nil, is invoked (once, asynchronously)
	// after POST /admin/decommission has pushed this node's cache to its
	// new owners and announced departure — the daemon hooks its graceful
	// drain-and-exit path here.
	OnDecommission func()
}

// Node is one member of the ring: it wraps the local server's HTTP
// handler, owning every submission whose digest hashes to it and
// routing the rest — peek the owner's cache first, forward on a miss,
// fail over to the next live ring successor when the owner is down.
// All inter-node traffic is charged against the modeled network.
type Node struct {
	cfg    Config
	self   Peer
	srv    *server.Server
	inner  http.Handler
	net    *NetModel
	log    *slog.Logger
	client *http.Client
	probe  *http.Client

	// ringMu guards the mutable membership view: the effective ring,
	// the full configured peer list (departed members included), the
	// departure marks, and the health map's structure (each entry has
	// its own lock). Membership changes — a peers.json reload, a leave
	// or join announcement — rebuild the ring under the write lock.
	ringMu   sync.RWMutex
	ring     *Ring
	peersAll []Peer
	departed map[int]bool
	health   map[int]*nodeHealth // keyed by peer ID; no entry for self

	// forwarded remembers where each forwarded job lives — and the trace
	// context its forward carried — so status, trace, profile, and cancel
	// requests follow it transparently and GET /jobs/{id}/trace can
	// stitch the remote spans under the entry node's forward span.
	mu        sync.Mutex
	forwarded map[string]fwdInfo // job ID -> owning peer + trace context

	repl chan replTask

	// spans holds background-round traces (replication, repair,
	// decommission) for GET /internal/trace/{trace_id}; spanSeq mints
	// node-unique cluster-side span ids.
	spans   *obs.SpanStore
	spanSeq atomic.Int64

	// reg is the server's registry, where the node keeps every metric:
	// routing, replication and repair counts, peer health, the modeled
	// network charge, and per-peer × per-RPC wall latency and errors.
	reg *obs.Registry

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds the node, declares its gpmetisd_cluster_* series in the
// server's registry, installs its status snapshot on the server
// (/healthz, /admin/status.json), and starts the health prober.
func New(cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: Config.Server is required")
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	var self Peer
	found := false
	for _, p := range ring.Peers() {
		if p.ID == cfg.NodeID {
			self, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: node id %d not in the peer list", cfg.NodeID)
	}
	if cfg.StrikeThreshold == 0 {
		cfg.StrikeThreshold = DefaultStrikeThreshold
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.AntiEntropyInterval == 0 {
		cfg.AntiEntropyInterval = DefaultAntiEntropyInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(os.Stderr, obs.LogText, slog.LevelInfo)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 15 * time.Second}
	}
	n := &Node{
		cfg:       cfg,
		self:      self,
		ring:      ring,
		peersAll:  ring.Peers(),
		departed:  map[int]bool{},
		srv:       cfg.Server,
		net:       NewNetModel(cfg.Machine, cfg.Server.Metrics()),
		log:       cfg.Logger.With("node_id", self.ID),
		client:    cfg.Client,
		probe:     &http.Client{Timeout: 2 * time.Second},
		health:    map[int]*nodeHealth{},
		forwarded: map[string]fwdInfo{},
		repl:      make(chan replTask, 256),
		spans:     obs.NewSpanStore(0),
		reg:       cfg.Server.Metrics(),
		stop:      make(chan struct{}),
	}
	n.declareMetrics()
	for _, p := range ring.Peers() {
		if p.ID != self.ID {
			n.health[p.ID] = newNodeHealth(n.reg, p.ID)
		}
	}
	n.srv.SetRing(n.hooks(true))
	if cfg.ProbeInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	if cfg.Replicas > 1 {
		n.wg.Add(1)
		go n.replicateLoop()
		if cfg.AntiEntropyInterval > 0 {
			n.wg.Add(1)
			go n.antiEntropyLoop()
		}
	}
	return n, nil
}

// Close stops every background goroutine the node owns — the health
// prober, the replicator, the anti-entropy sweep, and any in-flight
// reinstatement syncs — and uninstalls the replication hook. The
// wrapped handler keeps serving (the server owns its own shutdown);
// routing continues with frozen health, and the cluster series keep
// their last values in the server's registry.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.srv.SetRing(n.hooks(false))
		close(n.stop)
		n.wg.Wait()
	})
}

// hooks is what the node installs on its server: identity, status and
// routing always; while open, also the fresh-result hook that feeds
// replication.
func (n *Node) hooks(open bool) server.RingHooks {
	h := server.RingHooks{
		NodeID: strconv.Itoa(n.self.ID),
		Addr:   n.self.Addr,
		Status: n.Status,
		Route:  n.route,
	}
	if open && n.cfg.Replicas > 1 {
		h.Result = n.enqueueReplication
	}
	return h
}

// Ring returns the node's current effective ring (departed members
// excluded), for tests and tooling.
func (n *Node) Ring() *Ring { return n.currentRing() }

// currentRing snapshots the effective ring under the membership lock.
func (n *Node) currentRing() *Ring {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

// peerHealth returns the health entry for a peer ID, nil for self or
// unknown peers.
func (n *Node) peerHealth(id int) *nodeHealth {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.health[id]
}

// otherPeers snapshots the configured members other than self that have
// not announced departure — the probe, replication, and repair targets.
func (n *Node) otherPeers() []Peer {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	out := make([]Peer, 0, len(n.peersAll))
	for _, p := range n.peersAll {
		if p.ID != n.self.ID && !n.departed[p.ID] {
			out = append(out, p)
		}
	}
	return out
}

// Status snapshots the node for the wire — the callback behind the
// server's /healthz and ops view — reading its counts from the registry.
func (n *Node) Status() *server.ClusterStatus {
	count := func(name string) int64 { return int64(n.reg.Get(name)) }
	cs := &server.ClusterStatus{
		NodeID:            n.self.ID,
		Addr:              n.self.Addr,
		Forwards:          count("cluster.forwards"),
		PeekHits:          count("cluster.peek_hits"),
		PeekMisses:        count("cluster.peek_misses"),
		Failovers:         count("cluster.failovers_total"),
		NetModeledSeconds: n.reg.Get("cluster.net_modeled_seconds"),
		NetMessages:       count("cluster.net_messages"),
		Replicas:          n.cfg.Replicas,
		ReplicaPushes:     count("cluster.replica_pushes"),
		ReplicaStores:     count("cluster.replica_stores"),
		ReplicaHits:       count("cluster.replica_hits"),
		RepairPushed:      count("cluster.repair_pushed"),
		RepairPulled:      count("cluster.repair_pulled"),
	}
	n.ringMu.RLock()
	cs.VNodes = n.ring.VNodes()
	for _, p := range n.peersAll {
		ps := server.ClusterPeerStatus{
			ID: p.ID, Addr: p.Addr, Self: p.ID == n.self.ID,
			State: NodeUp, Left: n.departed[p.ID],
		}
		if h := n.health[p.ID]; h != nil {
			ps.State, ps.Strikes, ps.Downs = h.snapshot()
		}
		cs.Peers = append(cs.Peers, ps)
	}
	n.ringMu.RUnlock()
	return cs
}

// Handler wraps the server's HTTP API with the ring's routing layer:
//
//	GET  /internal/cache/{digest}  cross-node cache peek (200 result, 404)
//	PUT  /internal/cache/{digest}  replica store (replication, repair)
//	POST /internal/cache/summary   anti-entropy digest-summary exchange
//	GET  /internal/trace/{trace_id} this node's spans under a trace (stitching)
//	POST /internal/ring/leave      a member announced its departure
//	POST /internal/ring/join       a departed member announced its return
//	GET  /admin/cluster/status.json  federated fleet view, for gpmetis -top -cluster
//	POST /admin/decommission       retire this node: push cache, announce leave
//	POST /admin/rejoin             announce return and run catch-up repair
//	GET/DELETE /jobs/{id}[...]     proxied to the owner for forwarded jobs
//	                               (a forwarded job's /trace is stitched)
//
// Everything else passes straight through to inner, POST /jobs
// included: the server resolves the submission and hands it to route.
func (n *Node) Handler(inner http.Handler) http.Handler {
	n.inner = inner
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/cache/{digest}", n.handlePeek)
	mux.HandleFunc("PUT /internal/cache/{digest}", n.handleReplicaPut)
	mux.HandleFunc("POST /internal/cache/summary", n.handleSummary)
	mux.HandleFunc("GET /internal/trace/{trace_id}", n.handleTraceFetch)
	mux.HandleFunc("GET /admin/cluster/status.json", n.handleFleetJSON)
	mux.HandleFunc("POST /internal/ring/leave", n.handleLeave)
	mux.HandleFunc("POST /internal/ring/join", n.handleJoin)
	mux.HandleFunc("POST /admin/decommission", n.handleDecommission)
	mux.HandleFunc("POST /admin/rejoin", n.handleRejoin)
	mux.HandleFunc("GET /jobs/{id}", n.proxyOrLocal)
	mux.HandleFunc("DELETE /jobs/{id}", n.proxyOrLocal)
	mux.HandleFunc("GET /jobs/{id}/trace", n.proxyOrLocal)
	mux.HandleFunc("GET /jobs/{id}/profile", n.proxyOrLocal)
	mux.Handle("/", inner)
	return mux
}

// handlePeek answers a peer's cache probe from the local cache, without
// touching hit/miss accounting (Cache.Peek): the requester pays the
// modeled network cost and keeps the peek statistics.
func (n *Node) handlePeek(w http.ResponseWriter, r *http.Request) {
	res, ok := n.srv.PeekCached(r.PathValue("digest"))
	if !ok {
		writeJSON(w, http.StatusNotFound,
			server.ErrorResponse{Error: "not cached here", Code: server.CodeNotFound})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// route is the ring's routing core, the server's RingHooks.Route: it
// walks the ring from the job's owner, peeking each live candidate's
// cache and forwarding on a miss. When this node is the first live
// candidate it declines, and the server admits the job here, unless an
// untried member of the key's replica set already holds the result. A
// dead candidate is struck and the walk continues — that continuation
// is the failover path. The job's trace id, minted by the server before
// routing, rides the forward, so the whole routed submission is one
// trace wherever it lands; peek hits and forwards record it in the
// flight recorder.
func (n *Node) route(w http.ResponseWriter, j *server.Job) bool {
	key, traceID := j.Key(), j.TraceID()
	ring := n.currentRing()
	owner := ring.Owner(key)
	succs := ring.Successors(key)
	for i, p := range succs {
		if p.ID == n.self.ID {
			// Before recomputing work a dead owner may already have
			// finished, consult the untried members of the key's replica
			// set: a replicated entry answers bit-identically at zero
			// modeled partition cost, and read-repairs the local cache on
			// the way through.
			if res, from, ok := n.consultReplicas(ring, key, i); ok {
				n.noteFailover(owner, from, key)
				writeCached(w, from, res)
				return true
			}
			n.noteFailover(owner, p, key)
			return false
		}
		if n.peerIsDown(p) {
			continue
		}
		res, found, peekErr := n.peekRemote(p, key)
		if peekErr != nil {
			n.strikePeer(p, "peek: "+peekErr.Error())
			continue
		}
		if found {
			n.reg.Add("cluster.peek_hits", 1)
			n.noteFailover(owner, p, key)
			n.srv.RecordTracedEvent(obs.EvClusterPeekHit, traceID,
				fmt.Sprintf("node %d answered digest %.12s", p.ID, key))
			writeCached(w, p, res)
			return true
		}
		n.reg.Add("cluster.peek_misses", 1)
		resp, body, fi, fwdErr := n.forward(p, *j.Request(), traceID)
		if fwdErr != nil {
			n.strikePeer(p, "forward: "+fwdErr.Error())
			continue
		}
		n.clearStrikes(p)
		n.reg.Add("cluster.forwards", 1)
		n.noteFailover(owner, p, key)
		n.srv.RecordTracedEvent(obs.EvClusterForward, traceID,
			fmt.Sprintf("digest %.12s -> node %d", key, p.ID))
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			var st struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(body, &st) == nil && st.ID != "" {
				n.mu.Lock()
				n.forwarded[st.ID] = fi
				n.mu.Unlock()
			}
		}
		relay(w, resp, body)
		return true
	}
	writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{
		Error: "no live ring node reachable for this job",
		Code:  server.CodeClusterUnreachable,
	})
	return true
}

// cachedAnswer is the client's answer to a submission a peer's cache
// served: a done JobStatus whose result is the peer's
// GET /internal/cache/{digest} body, relayed without a decode.
type cachedAnswer struct {
	server.JobStatus
	Result json.RawMessage `json:"result"`
}

// writeCached answers a submission with the result from's cache holds.
func writeCached(w http.ResponseWriter, from Peer, result json.RawMessage) {
	writeJSON(w, http.StatusOK, cachedAnswer{
		JobStatus: server.JobStatus{State: server.StateDone, Cached: true, Device: -1, Node: from.Addr},
		Result:    result,
	})
}

// peekRemote asks peer whether it already caches digest, returning the
// cached JobResult as the peer's JSON bytes; a body that is not JSON is
// an error. Both legs of the probe are charged against the modeled
// network; the real wall cost lands in the per-peer rpc histograms.
func (n *Node) peekRemote(p Peer, digest string) (json.RawMessage, bool, error) {
	n.net.Charge(len(digest))
	req, err := http.NewRequest(http.MethodGet, "http://"+p.Addr+"/internal/cache/"+digest, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := n.doRPC(n.client, p, rpcPeek, req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	n.net.Charge(len(b))
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("peek status %d", resp.StatusCode)
	}
	if !json.Valid(b) {
		return nil, false, fmt.Errorf("peek answer is not JSON")
	}
	return b, true, nil
}

// forward ships the submission to peer with the forwarding envelope set:
// ForwardedBy pins the job there, ForwardNetSeconds carries the request
// leg's modeled cost into the job's lifecycle trace, and the trace
// fields make the remote job adopt this entry node's trace id and
// parent its spans under the forward span minted here. This body is the
// only carrier of trace context between nodes. The returned fwdInfo is
// what the stitcher needs later: the owner, the trace context, and the
// measured RTT. The owner's answer comes back with its body read.
func (n *Node) forward(p Peer, req server.SubmitRequest, traceID string) (*http.Response, []byte, fwdInfo, error) {
	fi := fwdInfo{
		peer:    p,
		traceID: traceID,
		spanID:  n.nextSpanID(),
		sentAt:  time.Now(),
	}
	req.ForwardedBy = n.self.Addr
	req.ForwardTraceID = traceID
	req.ForwardSpanID = fi.spanID
	payload, err := json.Marshal(&req)
	if err != nil {
		return nil, nil, fi, err
	}
	// The charge covers the body without itself, so it cannot be known
	// when the body is encoded. Append it as the object's last member
	// instead of encoding the graph text a second time.
	fi.netSeconds = n.net.Charge(len(payload))
	if payload, err = appendNetSeconds(payload, fi.netSeconds); err != nil {
		return nil, nil, fi, err
	}
	hreq, err := http.NewRequest(http.MethodPost, "http://"+p.Addr+"/jobs", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, fi, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := n.doRPC(n.client, p, rpcForward, hreq)
	if err != nil {
		return nil, nil, fi, err
	}
	fi.rtt = time.Since(fi.sentAt)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fi, err
	}
	n.net.Charge(len(b))
	return resp, b, fi, nil
}

// appendNetSeconds adds "forward_net_seconds" as the last member of the
// JSON object payload, which must not already carry it. A zero charge is
// omitted, as the field's omitempty tag would.
func appendNetSeconds(payload []byte, sec float64) ([]byte, error) {
	if sec == 0 {
		return payload, nil
	}
	num, err := json.Marshal(sec)
	if err != nil {
		return nil, err
	}
	payload = append(payload[:len(payload)-1], `,"forward_net_seconds":`...)
	return append(append(payload, num...), '}'), nil
}

// proxyOrLocal serves job lookups: jobs this node forwarded are fetched
// from their owner (the modeled network pays for both legs), everything
// else is local. A forwarded job's trace request is special: instead of
// relaying the owner's document verbatim, the entry node stitches its
// own forward span and the owner's spans into one multi-process trace.
func (n *Node) proxyOrLocal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n.mu.Lock()
	fi, ok := n.forwarded[id]
	n.mu.Unlock()
	if !ok {
		n.inner.ServeHTTP(w, r)
		return
	}
	p := fi.peer
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/trace") {
		if n.stitchForwardedTrace(w, fi) {
			return
		}
		// Stitching failed (owner unreachable, trace evicted); fall back
		// to the plain proxy so the client still gets the owner's view.
	}
	n.net.Charge(len(r.URL.Path))
	req2, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+p.Addr+r.URL.Path, nil)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			server.ErrorResponse{Error: err.Error(), Code: server.CodeBadRequest})
		return
	}
	resp, err := n.doRPC(n.client, p, rpcProxy, req2)
	if err != nil {
		n.strikePeer(p, "proxy: "+err.Error())
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{
			Error: fmt.Sprintf("owning node %d (%s) unreachable: %v", p.ID, p.Addr, err),
			Code:  server.CodeNodeUnreachable,
		})
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		n.strikePeer(p, "proxy read: "+err.Error())
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{
			Error: fmt.Sprintf("owning node %d (%s) failed mid-response: %v", p.ID, p.Addr, err),
			Code:  server.CodeNodeUnreachable,
		})
		return
	}
	n.net.Charge(len(b))
	n.clearStrikes(p)
	relay(w, resp, b)
}

// noteFailover accounts a submission that landed on a ring successor
// instead of the digest's owner.
func (n *Node) noteFailover(owner, got Peer, key string) {
	if owner.ID == got.ID {
		return
	}
	n.reg.Add("cluster.failovers_total", 1)
	detail := fmt.Sprintf("digest %.12s: owner %d down, routed to successor %d", key, owner.ID, got.ID)
	n.srv.RecordEvent(obs.EvClusterFailover, detail)
	n.log.Warn("cluster failover", "digest", key[:12], "owner", owner.ID, "successor", got.ID)
}

// strikePeer records a request-path failure against a peer, marking it
// down at the strike threshold.
func (n *Node) strikePeer(p Peer, detail string) {
	h := n.peerHealth(p.ID)
	if h == nil {
		return
	}
	if h.strike(n.cfg.StrikeThreshold) {
		n.srv.RecordEvent(obs.EvNodeDown, fmt.Sprintf("node %d (%s): %s", p.ID, p.Addr, detail))
		n.log.Warn("peer marked down", "peer", p.ID, "addr", p.Addr, "cause", detail)
	}
}

// clearStrikes resets a peer's failure streak after it answered cleanly.
func (n *Node) clearStrikes(p Peer) {
	if h := n.peerHealth(p.ID); h != nil {
		h.clearStrikes()
	}
}

// probeLoop checks every peer's /healthz at the configured cadence.
// Probes of down peers count toward their reinstatement budget; probes
// of up peers clear or accumulate strikes. Each probe is charged to the
// modeled network like any other message.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			for _, p := range n.otherPeers() {
				n.probePeer(p)
			}
		}
	}
}

// probePeer runs one health probe against p and folds the outcome into
// its quarantine state machine.
func (n *Node) probePeer(p Peer) {
	h := n.peerHealth(p.ID)
	if h == nil {
		return
	}
	n.net.Charge(0)
	var resp *http.Response
	req, err := http.NewRequest(http.MethodGet, "http://"+p.Addr+"/healthz", nil)
	if err == nil {
		resp, err = n.doRPC(n.probe, p, rpcProbe, req)
	}
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		n.net.Charge(len(b))
	}
	wasDown := h.down()
	if ok {
		if h.probeResult(true) {
			n.srv.RecordEvent(obs.EvNodeUp, fmt.Sprintf("node %d (%s) reinstated", p.ID, p.Addr))
			n.log.Info("peer reinstated", "peer", p.ID, "addr", p.Addr)
			n.spawnSync(p)
		}
		return
	}
	if wasDown {
		h.probeResult(false)
		return
	}
	n.strikePeer(p, "health probe failed")
}

// relay writes a peer's answer, its body already read, through to the
// client. Retry-After comes along, so a 429 or a draining 503 relayed
// from a peer keeps the back-off hint the client waits by.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
