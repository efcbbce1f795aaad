package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// ringNode is one in-process member of a test ring: a real server, a
// cluster node wrapping it, and a real TCP listener so peers can dial
// each other exactly as separate daemons would.
type ringNode struct {
	peer Peer
	srv  *server.Server
	node *Node
	hs   *http.Server
}

func (rn *ringNode) base() string { return "http://" + rn.peer.Addr }

// startTestRing boots n ring members on loopback listeners. The health
// prober is disabled; request-path strikes drive failover, which keeps
// the tests deterministic.
func startTestRing(t *testing.T, n int) []*ringNode {
	t.Helper()
	return startTestRingCfg(t, n, nil, nil)
}

// startTestRingCfg is startTestRing with per-node config hooks: srvCfg
// and nodeCfg (either may be nil) mutate each member's server and
// cluster configuration before boot. The anti-entropy loop is disabled
// by default so repairs only run when a test invokes them; hooks can
// re-enable it.
func startTestRingCfg(t *testing.T, n int,
	srvCfg func(i int, c *server.Config), nodeCfg func(i int, c *Config)) []*ringNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = Peer{ID: i, Addr: ln.Addr().String()}
	}
	nodes := make([]*ringNode, n)
	for i := 0; i < n; i++ {
		sc := server.Config{
			Devices: 1, QueueCap: 16, CacheCap: 32, Logger: obs.DiscardLogger(),
			JobIDPrefix: fmt.Sprintf("n%d-j", i),
		}
		if srvCfg != nil {
			srvCfg(i, &sc)
		}
		s := server.New(sc)
		cc := Config{
			NodeID: i, Peers: peers, Server: s,
			ProbeInterval: -1, AntiEntropyInterval: -1, Logger: obs.DiscardLogger(),
		}
		if nodeCfg != nil {
			nodeCfg(i, &cc)
		}
		nd, err := New(cc)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: nd.Handler(s.Handler())}
		go hs.Serve(lns[i])
		nodes[i] = &ringNode{peer: peers[i], srv: s, node: nd, hs: hs}
	}
	t.Cleanup(func() {
		for _, rn := range nodes {
			rn.hs.Close()
			rn.node.Close()
			rn.srv.Close()
		}
	})
	return nodes
}

func clusterGraphText(t *testing.T, g *gpmetis.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := gio.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func clusterSubmit(t *testing.T, base string, req server.SubmitRequest) (server.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit to %s: HTTP %d %s (%s)", base, resp.StatusCode, e.Error, e.Code)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func clusterPoll(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterCounter reads one unlabeled registry series from a node's
// /metrics scrape: "jobs.completed" reads gpmetisd_jobs_completed, and
// an absent series reads 0.
func clusterCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	prefix := "gpmetisd_" + strings.ReplaceAll(name, ".", "_") + " "
	for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return f
		}
	}
	return 0
}

func sumCounter(t *testing.T, nodes []*ringNode, name string) float64 {
	t.Helper()
	total := 0.0
	for _, rn := range nodes {
		total += clusterCounter(t, rn.base(), name)
	}
	return total
}

// TestClusterRoutesToOneOwner is the acceptance scenario: identical
// submissions entering the ring at different nodes land on the digest's
// one owner; the second entry node answers from the owner's cache via a
// peek, with zero additional modeled partition seconds anywhere in the
// ring, and the result is bit-identical to a direct Partition call.
func TestClusterRoutesToOneOwner(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Delaunay(1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 7}
	direct, err := gpmetis.Partition(g, 4, gpmetis.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil || key == "" {
		t.Fatalf("KeyForRequest: key=%q err=%v", key, err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entries []*ringNode // the two non-owner members
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entries = append(entries, rn)
		}
	}

	// First submission enters at a non-owner: it must be forwarded to the
	// owner, and the entry node must proxy the polls there transparently.
	st, _ := clusterSubmit(t, entries[0].base(), req)
	st = clusterPoll(t, entries[0].base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	if st.Cached {
		t.Error("first submission must not be a cache hit")
	}
	if st.Node != owner.Addr {
		t.Errorf("job ran on %q, ring owner is %q", st.Node, owner.Addr)
	}
	if fw := entries[0].node.Status().Forwards; fw != 1 {
		t.Errorf("entry node forwarded %d submissions, want 1", fw)
	}
	for v, p := range st.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("forwarded result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}

	modeledBefore := sumCounter(t, nodes, "modeled.seconds")
	if modeledBefore <= 0 {
		t.Fatal("the first run must accumulate modeled seconds")
	}

	// The identical submission enters at the other non-owner: the peek
	// must answer it from the owner's cache without another forward.
	st2, code := clusterSubmit(t, entries[1].base(), req)
	if code != http.StatusOK || st2.State != server.StateDone || !st2.Cached {
		t.Fatalf("resubmit: code=%d state=%s cached=%t, want 200/done/true", code, st2.State, st2.Cached)
	}
	if st2.Node != owner.Addr {
		t.Errorf("peek answered from %q, want the owner %q", st2.Node, owner.Addr)
	}
	cs := entries[1].node.Status()
	if cs.PeekHits != 1 || cs.Forwards != 0 {
		t.Errorf("second entry: peek_hits=%d forwards=%d, want 1 and 0", cs.PeekHits, cs.Forwards)
	}
	if cs.NetModeledSeconds <= 0 || cs.NetMessages == 0 {
		t.Errorf("peek traffic must be charged to the modeled network (sec=%v msgs=%d)",
			cs.NetModeledSeconds, cs.NetMessages)
	}
	for v, p := range st2.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("peeked result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}

	// Exactly one node executed the job, and the peek charged no
	// partition time anywhere in the ring.
	if done := sumCounter(t, nodes, "jobs.completed"); done != 1 {
		t.Errorf("ring completed %v jobs for one distinct submission, want 1", done)
	}
	if after := sumCounter(t, nodes, "modeled.seconds"); after != modeledBefore {
		t.Errorf("cache peek charged modeled partition time: %.9f -> %.9f", modeledBefore, after)
	}
}

// TestClusterPeekHitRelaysOwnerBytes: a peek hit's answer carries the
// owner's GET /internal/cache/{digest} body as its result, byte for byte
// (less the encoder's trailing newline), and a peer answering a peek
// with malformed JSON is an error, which the route strikes.
func TestClusterPeekHitRelaysOwnerBytes(t *testing.T) {
	nodes := startTestRing(t, 3)
	g, err := gpmetis.Grid2D(24, 24)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 3}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	set := nodes[0].node.Ring().Successors(key)[:2]
	byID := map[int]*ringNode{}
	for _, rn := range nodes {
		byID[rn.peer.ID] = rn
	}
	owner := byID[set[0].ID]
	var entry *ringNode // outside the replica set: it can only peek
	for _, rn := range nodes {
		if rn.peer.ID != set[0].ID && rn.peer.ID != set[1].ID {
			entry = rn
		}
	}

	st, _ := clusterSubmit(t, owner.base(), req)
	if st = clusterPoll(t, owner.base(), st.ID); st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	resp, err := http.Get(owner.base() + "/internal/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	ownerBody := new(bytes.Buffer)
	ownerBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner cache GET: HTTP %d", resp.StatusCode)
	}

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp, answer := postJobs(t, entry.base(), body)
	var hit struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(answer, &hit); err != nil || hresp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmit: HTTP %d cached=%t err=%v", hresp.StatusCode, hit.Cached, err)
	}
	if got := entry.node.Status().PeekHits; got != 1 {
		t.Fatalf("entry peek hits = %d, want 1", got)
	}
	if want := bytes.TrimSuffix(ownerBody.Bytes(), []byte("\n")); !bytes.Equal(hit.Result, want) {
		t.Errorf("peek-hit result is not the owner's bytes:\n got %.200s\nwant %.200s", hit.Result, want)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"part": [0, 1`))
	}))
	defer bad.Close()
	badPeer := Peer{ID: 9, Addr: strings.TrimPrefix(bad.URL, "http://")}
	if _, found, err := entry.node.peekRemote(badPeer, key); err == nil || found {
		t.Errorf("malformed peek answer: found=%t err=%v, want an error", found, err)
	}
}

// TestClusterFailoverOnDeadOwner: with the digest's owner gone, a
// submission entering elsewhere walks the ring to the next live
// successor, completes there, and the entry node accounts a failover.
func TestClusterFailoverOnDeadOwner(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 11}
	direct, err := gpmetis.Partition(g, 4, gpmetis.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID == owner.ID {
			rn.hs.Close() // kill the owner before anyone submits
		} else if entry == nil {
			entry = rn
		}
	}

	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("failover job state %s, error %q", st.State, st.Error)
	}
	if st.Node == owner.Addr {
		t.Errorf("job reports the dead owner %q as its home", owner.Addr)
	}
	if fo := entry.node.Status().Failovers; fo < 1 {
		t.Errorf("entry node recorded %d failovers, want >= 1", fo)
	}
	for v, p := range st.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("failover result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}
}

// TestClusterForwardedJobPinned: a submission carrying the forwarding
// envelope must run where it lands, even when the ring says another
// node owns its digest — the loop guard that keeps divergent ring views
// from bouncing a job forever.
func TestClusterForwardedJobPinned(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 3}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entry = rn
			break
		}
	}

	req.ForwardedBy = "10.0.0.99:9999" // claims to be already forwarded
	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("pinned job state %s, error %q", st.State, st.Error)
	}
	if st.Node != entry.peer.Addr {
		t.Errorf("pinned job ran on %q, want the receiving node %q", st.Node, entry.peer.Addr)
	}
	if fw := entry.node.Status().Forwards; fw != 0 {
		t.Errorf("pinned job was re-forwarded %d times, want 0", fw)
	}
}

// TestClusterStatusOnHealthz: every ring member reports its identity,
// the member list, and per-peer health on /healthz.
func TestClusterStatusOnHealthz(t *testing.T) {
	nodes := startTestRing(t, 3)
	for i, rn := range nodes {
		resp, err := http.Get(rn.base() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h server.HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Cluster == nil {
			t.Fatalf("node %d: /healthz has no cluster block", i)
		}
		if h.Cluster.NodeID != i || h.Cluster.Addr != rn.peer.Addr {
			t.Errorf("node %d reports identity %d (%s)", i, h.Cluster.NodeID, h.Cluster.Addr)
		}
		if len(h.Cluster.Peers) != 3 {
			t.Errorf("node %d reports %d peers, want 3", i, len(h.Cluster.Peers))
		}
		selfSeen := false
		for _, p := range h.Cluster.Peers {
			if p.Self {
				selfSeen = true
				if p.ID != i {
					t.Errorf("node %d marks peer %d as self", i, p.ID)
				}
			}
			if p.State != NodeUp {
				t.Errorf("node %d sees peer %d as %s with no failures injected", i, p.ID, p.State)
			}
		}
		if !selfSeen {
			t.Errorf("node %d does not mark itself in the peer list", i)
		}
	}
}

// TestClusterMetricsExported: the gpmetisd_cluster_* series appear on
// /metrics with the node's identity and per-peer up gauges.
func TestClusterMetricsExported(t *testing.T) {
	nodes := startTestRing(t, 3)
	resp, err := http.Get(nodes[0].base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	text := b.String()
	for _, want := range []string{
		"gpmetisd_cluster_node_id 0",
		"gpmetisd_cluster_ring_size 3",
		"gpmetisd_cluster_forwards",
		"gpmetisd_cluster_peek_hits",
		"gpmetisd_cluster_peek_misses",
		"gpmetisd_cluster_failovers_total",
		"gpmetisd_cluster_net_modeled_seconds",
		"gpmetisd_cluster_net_messages",
		"gpmetisd_cluster_replicas 2",
		"gpmetisd_cluster_replica_pushes",
		"gpmetisd_cluster_replica_stores",
		"gpmetisd_cluster_replica_hits",
		"gpmetisd_cluster_repair_pushed",
		"gpmetisd_cluster_repair_pulled",
		`gpmetisd_cluster_node_up{node="1"} 1`,
		`gpmetisd_cluster_node_up{node="2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	if strings.Contains(text, fmt.Sprintf(`gpmetisd_cluster_node_up{node="0"}`)) {
		t.Error("a node must not export an up gauge for itself")
	}
}

// postJobs sends a raw POST /jobs body and returns the answer with its
// body read.
func postJobs(t *testing.T, base string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// seedsOwnedBy returns n seeds whose submissions of req's graph and k
// the ring assigns to peer id.
func seedsOwnedBy(t *testing.T, ring *Ring, req server.SubmitRequest, id, n int) []int64 {
	t.Helper()
	var seeds []int64
	for seed := int64(1); len(seeds) < n && seed < 200; seed++ {
		r := req
		r.Seed = seed
		key, err := server.KeyForRequest(&r)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key).ID == id {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < n {
		t.Fatalf("found %d seeds owned by node %d, want %d", len(seeds), id, n)
	}
	return seeds
}

// TestClusterRelaysRetryAfter: an admission rejection reaches the client
// with its Retry-After through a ring node, whether the entry node owns
// the submission (the rejection is its own) or forwarded it (the owner's
// rejection is relayed).
func TestClusterRelaysRetryAfter(t *testing.T) {
	nodes := startTestRingCfg(t, 3, func(_ int, c *server.Config) {
		c.Tenants = server.TenantsConfig{"limited": {RatePerSec: 0.001, Burst: 1}}
	}, nil)
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Tenant: "limited"}
	entry := nodes[0]
	for _, tc := range []struct {
		name  string
		owner int
	}{{"owned by the entry node", 0}, {"forwarded", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			seeds := seedsOwnedBy(t, entry.node.Ring(), req, tc.owner, 2)
			first, second := req, req
			first.Seed, second.Seed = seeds[0], seeds[1]
			if st, code := clusterSubmit(t, entry.base(), first); st.Node != nodes[tc.owner].peer.Addr {
				t.Fatalf("first submission: HTTP %d on %q, want the owner %q", code, st.Node, nodes[tc.owner].peer.Addr)
			}
			body, err := json.Marshal(second)
			if err != nil {
				t.Fatal(err)
			}
			resp, b := postJobs(t, entry.base(), body)
			var e server.ErrorResponse
			json.Unmarshal(b, &e)
			if resp.StatusCode != http.StatusTooManyRequests || e.Code != server.CodeRateLimited {
				t.Fatalf("second submission: HTTP %d code %q, want 429 %q", resp.StatusCode, e.Code, server.CodeRateLimited)
			}
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Errorf("429 through the ring carries Retry-After %q, want whole seconds >= 1",
					resp.Header.Get("Retry-After"))
			}
		})
	}
}

// TestClusterSubmitAtOwner: a submission entering at its own ring owner
// is admitted there, and every status the node writes for it — the
// POST answer, GET /jobs/{id} and DELETE /jobs/{id} — names that node.
func TestClusterSubmitAtOwner(t *testing.T) {
	nodes := startTestRing(t, 3)
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 5}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[nodes[0].node.Ring().Owner(key).ID]

	st, code := clusterSubmit(t, owner.base(), req)
	if code != http.StatusAccepted || st.Node != owner.peer.Addr {
		t.Fatalf("POST: HTTP %d node %q, want 202 and %q", code, st.Node, owner.peer.Addr)
	}
	if fw := owner.node.Status().Forwards; fw != 0 {
		t.Errorf("owner forwarded %d submissions, want 0", fw)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		hreq, err := http.NewRequest(method, owner.base()+"/jobs/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var got server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /jobs/%s: HTTP %d, %v", method, st.ID, resp.StatusCode, err)
		}
		if got.ID != st.ID || got.Node != owner.peer.Addr {
			t.Errorf("%s /jobs/%s: id %q node %q, want %q on %q", method, st.ID, got.ID, got.Node, st.ID, owner.peer.Addr)
		}
	}
}

// TestClusterRejectsLikeStandalone: invalid submissions get the same
// HTTP status and error code at every ring node as from a standalone
// server.
func TestClusterRejectsLikeStandalone(t *testing.T) {
	nodes := startTestRing(t, 3)
	alone := server.New(server.Config{Devices: 1, Logger: obs.DiscardLogger()})
	defer alone.Close()
	standalone := httptest.NewServer(alone.Handler())
	defer standalone.Close()

	g, err := gpmetis.Grid2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tooMany, err := json.Marshal(server.SubmitRequest{Graph: clusterGraphText(t, g), K: 17})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"malformed JSON":    []byte(`{"graph": "1 0\n", "k": `),
		"unparsable graph":  []byte(`{"graph": "not a graph", "k": 2}`),
		"k exceeds n":       tooMany,
		"unknown algorithm": []byte(`{"graph": "1 0\n\n", "k": 1, "algo": "nope"}`),
	} {
		want, wb := postJobs(t, standalone.URL, body)
		var we server.ErrorResponse
		if err := json.Unmarshal(wb, &we); err != nil || want.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: standalone answered HTTP %d %s", name, want.StatusCode, wb)
		}
		for _, rn := range nodes {
			got, gb := postJobs(t, rn.base(), body)
			var ge server.ErrorResponse
			json.Unmarshal(gb, &ge)
			if got.StatusCode != want.StatusCode || ge.Code != we.Code {
				t.Errorf("%s at node %d: HTTP %d code %q, standalone HTTP %d code %q",
					name, rn.peer.ID, got.StatusCode, ge.Code, want.StatusCode, we.Code)
			}
		}
	}
}

// TestClusterForwardChargeCoversBodyWithoutCharge: a forward is charged
// α+βn for its body without the charge itself, and that charge reaches
// the owner bit for bit: it is the forward's net seconds on the entry
// and the net_modeled_seconds of the owner's cluster-forward span.
func TestClusterForwardChargeCoversBodyWithoutCharge(t *testing.T) {
	owner := server.New(server.Config{Devices: 1, QueueCap: 4, CacheCap: 4, Logger: obs.DiscardLogger()})
	defer owner.Close()
	var mu sync.Mutex
	var body []byte
	inner := owner.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			body = b
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ownerPeer := Peer{ID: 1, Addr: strings.TrimPrefix(ts.URL, "http://")}

	entrySrv := server.New(server.Config{Devices: 1, QueueCap: 4, CacheCap: 4, Logger: obs.DiscardLogger()})
	defer entrySrv.Close()
	entry, err := New(Config{
		NodeID: 0, Peers: []Peer{{ID: 0, Addr: "127.0.0.1:1"}, ownerPeer}, Server: entrySrv,
		Replicas: 1, ProbeInterval: -1, AntiEntropyInterval: -1, Logger: obs.DiscardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer entry.Close()

	req := server.SubmitRequest{Graph: clusterGraphText(t, mustGrid(t, 20, 20)), K: 4, Seed: 3}
	resp, answer, fi, err := entry.forward(ownerPeer, req, obs.NewTraceID())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("forward: HTTP %d %s", resp.StatusCode, answer)
	}
	var st server.JobStatus
	if err := json.Unmarshal(answer, &st); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	sentBody := body
	mu.Unlock()
	var sent server.SubmitRequest
	if err := json.Unmarshal(sentBody, &sent); err != nil {
		t.Fatalf("forward body is not a SubmitRequest: %v", err)
	}
	charged := sent.ForwardNetSeconds
	sent.ForwardNetSeconds = 0
	bare, err := json.Marshal(&sent)
	if err != nil {
		t.Fatal(err)
	}
	want := NewNetModel(nil, &obs.Registry{}).Charge(len(bare))
	if charged != want || fi.netSeconds != want {
		t.Errorf("forward charge: body carries %v, entry recorded %v, want Charge(%d bytes) = %v",
			charged, fi.netSeconds, len(bare), want)
	}

	// Read the trace once the run is over: the modeled spans of a running
	// job are still being written.
	clusterPoll(t, ts.URL, st.ID)
	var got any
	for _, ev := range fetchChromeTrace(t, ts.URL, st.ID).TraceEvents {
		if ev.Ph == "X" && ev.Name == "cluster-forward" {
			got = ev.Args["net_modeled_seconds"]
		}
	}
	if got != want {
		t.Errorf("owner's cluster-forward span net_modeled_seconds = %v, want %v", got, want)
	}
}
