package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reqOwnedBy searches seeds until it finds a submission whose digest the
// given ring member owns, returning the request and its digest.
func reqOwnedBy(t *testing.T, ring *Ring, graphText string, ownerID int) (server.SubmitRequest, string) {
	t.Helper()
	for seed := int64(1); seed < 500; seed++ {
		req := server.SubmitRequest{Graph: graphText, K: 2, Seed: seed}
		keyReq := req
		key, err := server.KeyForRequest(&keyReq)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key).ID == ownerID {
			return req, key
		}
	}
	t.Fatalf("no seed in 1..500 hashes to node %d", ownerID)
	return server.SubmitRequest{}, ""
}

// relisten re-binds a listener on a fixed address that a previous server
// just released, retrying briefly while the port frees up.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("relisten %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterReplicatesOnCompletion: a fresh completion on a digest's
// owner is pushed asynchronously to the next ring successor, lands
// bit-identically in its cache, and the push traffic is charged to the
// modeled network.
func TestClusterReplicatesOnCompletion(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req, key := reqOwnedBy(t, nodes[0].node.Ring(), clusterGraphText(t, g), 0)
	owner := nodes[0]
	targets := owner.node.replicaTargets(key)
	if len(targets) != 1 {
		t.Fatalf("replica targets = %v, want exactly one with RF=2", targets)
	}
	target := nodes[targets[0].ID]

	netBefore := owner.node.Status().NetModeledSeconds
	st, _ := clusterSubmit(t, owner.base(), req)
	st = clusterPoll(t, owner.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}

	waitFor(t, "replica to land on the successor", func() bool {
		_, ok := target.srv.PeekCached(key)
		return ok && owner.node.Status().ReplicaPushes == 1
	})
	rep, _ := target.srv.PeekCached(key)
	if len(rep.Part) != len(st.Result.Part) {
		t.Fatalf("replica has %d vertices, owner result %d", len(rep.Part), len(st.Result.Part))
	}
	for v, p := range rep.Part {
		if p != st.Result.Part[v] {
			t.Fatalf("replica differs from the owner's result at vertex %d (%d vs %d)", v, p, st.Result.Part[v])
		}
	}
	if pushes := owner.node.Status().ReplicaPushes; pushes != 1 {
		t.Errorf("owner pushed %d replicas, want 1", pushes)
	}
	if stores := target.node.Status().ReplicaStores; stores != 1 {
		t.Errorf("target stored %d replicas, want 1", stores)
	}
	if after := owner.node.Status().NetModeledSeconds; after <= netBefore {
		t.Errorf("replication was not charged to the modeled network (%.9f -> %.9f)", netBefore, after)
	}
	cs := owner.node.Status()
	if cs.Replicas != 2 || cs.ReplicaPushes != 1 {
		t.Errorf("owner status: replicas=%d pushes=%d, want 2 and 1", cs.Replicas, cs.ReplicaPushes)
	}
}

// TestClusterFailoverServedFromReplica is the tentpole acceptance
// scenario: kill a digest's owner after its result replicated, and a
// resubmission entering any survivor is served bit-identically from the
// replica — zero new jobs executed, zero modeled partition seconds.
func TestClusterFailoverServedFromReplica(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(35, 35)
	if err != nil {
		t.Fatal(err)
	}
	req, key := reqOwnedBy(t, nodes[0].node.Ring(), clusterGraphText(t, g), 1)
	owner := nodes[1]
	target := nodes[owner.node.replicaTargets(key)[0].ID]
	var other *ringNode // the survivor outside the replica set
	for _, rn := range nodes {
		if rn != owner && rn != target {
			other = rn
		}
	}

	st, _ := clusterSubmit(t, owner.base(), req)
	st = clusterPoll(t, owner.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	waitFor(t, "replica to land on the successor", func() bool {
		_, ok := target.srv.PeekCached(key)
		return ok
	})

	owner.hs.Close() // kill the owner; its cache dies with it
	survivors := []*ringNode{target, other}
	jobsBefore := sumCounter(t, survivors, "jobs.completed")
	modeledBefore := sumCounter(t, survivors, "modeled.seconds")

	// Entering at the non-replica survivor: the walk skips the dead
	// owner and peeks the replica holder.
	st2, code := clusterSubmit(t, other.base(), req)
	if code != http.StatusOK || st2.State != server.StateDone || !st2.Cached {
		t.Fatalf("resubmit via non-replica: code=%d state=%s cached=%t, want 200/done/true",
			code, st2.State, st2.Cached)
	}
	for v, p := range st2.Result.Part {
		if p != st.Result.Part[v] {
			t.Fatalf("replica-served result differs at vertex %d (%d vs %d)", v, p, st.Result.Part[v])
		}
	}

	// Entering at the replica holder itself: its own cache answers.
	st3, code := clusterSubmit(t, target.base(), req)
	if code != http.StatusOK || !st3.Cached {
		t.Fatalf("resubmit via replica holder: code=%d cached=%t, want 200/true", code, st3.Cached)
	}
	for v, p := range st3.Result.Part {
		if p != st.Result.Part[v] {
			t.Fatalf("local-replica result differs at vertex %d (%d vs %d)", v, p, st.Result.Part[v])
		}
	}

	if after := sumCounter(t, survivors, "jobs.completed"); after != jobsBefore {
		t.Errorf("replica-served reads executed jobs: completed %v -> %v", jobsBefore, after)
	}
	if after := sumCounter(t, survivors, "modeled.seconds"); after != modeledBefore {
		t.Errorf("replica-served reads charged partition time: %.9f -> %.9f", modeledBefore, after)
	}
	if fo := other.node.Status().Failovers + target.node.Status().Failovers; fo < 2 {
		t.Errorf("survivors recorded %d failovers, want >= 2", fo)
	}
}

// TestClusterReinstatementRepair: a replica push to a dead peer is
// skipped, and when the prober reinstates the peer its one summary
// exchange delivers the missed entry bit-identically. The periodic
// anti-entropy sweep is off, so the reinstatement sync is the only path
// that can deliver it.
func TestClusterReinstatementRepair(t *testing.T) {
	nodes := startTestRingCfg(t, 3, nil, func(_ int, c *Config) {
		c.ProbeInterval = 10 * time.Millisecond
	})

	g, err := gpmetis.Grid2D(25, 25)
	if err != nil {
		t.Fatal(err)
	}
	req, key := reqOwnedBy(t, nodes[0].node.Ring(), clusterGraphText(t, g), 2)
	owner := nodes[2]
	target := nodes[owner.node.replicaTargets(key)[0].ID]

	// The replica target is down, as the owner's prober sees it, before
	// the job completes: the owner's push is skipped.
	target.hs.Close()
	waitFor(t, "the owner to mark the target down", func() bool {
		return owner.node.peerIsDown(target.peer)
	})
	st, _ := clusterSubmit(t, owner.base(), req)
	st = clusterPoll(t, owner.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	// The skip is decided when the replicator dequeues the result; the
	// target stays marked down until a probe after its restart.
	waitFor(t, "the replication queue to empty", func() bool {
		return len(owner.node.repl) == 0
	})
	if pushes := owner.node.Status().ReplicaPushes; pushes != 0 {
		t.Fatalf("owner pushed %d replicas to a down target, want 0", pushes)
	}

	// Bring the target back; reinstatement runs the repair.
	ln := relisten(t, target.peer.Addr)
	hs2 := &http.Server{Handler: target.hs.Handler}
	go hs2.Serve(ln)
	t.Cleanup(func() { hs2.Close() })

	// The target stores the entry before the owner counts the push.
	waitFor(t, "the reinstatement sync to deliver the missed entry", func() bool {
		_, ok := target.srv.PeekCached(key)
		return ok && owner.node.Status().RepairPushed >= 1
	})
	rep, _ := target.srv.PeekCached(key)
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("repaired entry differs from the owner's result:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestClusterAntiEntropyRepair: a summary exchange detects divergence in
// both directions — entries only this node holds are pushed, entries
// only the peer holds (that this node replicates) are pulled.
func TestClusterAntiEntropyRepair(t *testing.T) {
	nodes := startTestRing(t, 3)

	// One real completion supplies a result body to replicate around.
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := clusterSubmit(t, nodes[0].base(), server.SubmitRequest{
		Graph: clusterGraphText(t, g), K: 2, Seed: 1,
	})
	st = clusterPoll(t, nodes[0].base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	res := st.Result

	// Let the organic replication of the real job settle so the sweep
	// only sees the divergence we manufacture.
	time.Sleep(100 * time.Millisecond)

	// synthetic digests with a known replica pair {A, B}.
	findPair := func(exclude map[string]bool) (string, *ringNode, *ringNode) {
		ring := nodes[0].node.Ring()
		for i := 0; i < 10000; i++ {
			d := fmt.Sprintf("%064x", i)
			if exclude[d] {
				continue
			}
			succs := ring.Successors(d)
			return d, nodes[succs[0].ID], nodes[succs[1].ID]
		}
		t.Fatal("unreachable")
		return "", nil, nil
	}

	// Push direction: A holds a digest B should replicate but lacks.
	d1, a1, b1 := findPair(nil)
	if !a1.srv.StoreReplicated(d1, res) {
		t.Fatal("seed store on A failed")
	}
	pushedBefore := a1.node.Status().RepairPushed
	a1.node.AntiEntropyNow()
	if got := a1.node.Status().RepairPushed; got <= pushedBefore {
		t.Errorf("repair pushed %d entries, want > %d", got, pushedBefore)
	}
	if _, ok := b1.srv.PeekCached(d1); !ok {
		t.Error("anti-entropy did not push the diverged entry to its replica")
	}

	// Pull direction: B holds a digest A replicates but lacks.
	d2, a2, b2 := findPair(map[string]bool{d1: true})
	if !b2.srv.StoreReplicated(d2, res) {
		t.Fatal("seed store on B failed")
	}
	pulledBefore := a2.node.Status().RepairPulled
	a2.node.AntiEntropyNow()
	if got := a2.node.Status().RepairPulled; got <= pulledBefore {
		t.Errorf("repair pulled %d entries, want > %d", got, pulledBefore)
	}
	if _, ok := a2.srv.PeekCached(d2); !ok {
		t.Error("anti-entropy did not pull the diverged entry from its replica")
	}

	// A second sweep finds nothing left to move.
	pushedBefore = a1.node.Status().RepairPushed + a2.node.Status().RepairPushed
	pulledBefore = a1.node.Status().RepairPulled + a2.node.Status().RepairPulled
	a1.node.AntiEntropyNow()
	a2.node.AntiEntropyNow()
	if got := a1.node.Status().RepairPushed + a2.node.Status().RepairPushed; got != pushedBefore {
		t.Errorf("converged sweep still pushed (%d -> %d)", pushedBefore, got)
	}
	if got := a1.node.Status().RepairPulled + a2.node.Status().RepairPulled; got != pulledBefore {
		t.Errorf("converged sweep still pulled (%d -> %d)", pulledBefore, got)
	}
}

// nodeGoroutines counts the goroutines running a Node method, the
// background loops and reinstatement syncs among them.
func nodeGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "gpmetis/internal/cluster.(*Node)") {
			count++
		}
	}
	return count
}

// TestClusterCloseStopsGoroutines pins the leak fix: Close must stop the
// prober, the replicator, the anti-entropy sweep, and any reinstatement
// syncs — the goroutine count returns to its pre-New baseline. The start
// check looks for the Node's own goroutines rather than a total above the
// baseline: connection goroutines an earlier test left winding down can
// lower the total faster than New raises it.
func TestClusterCloseStopsGoroutines(t *testing.T) {
	s := server.New(server.Config{
		Devices: 1, QueueCap: 4, CacheCap: 8, Logger: obs.DiscardLogger(),
	})
	defer s.Close()
	// Unreachable peer addresses keep the prober busy failing.
	peers := []Peer{{ID: 0, Addr: "127.0.0.1:1"}, {ID: 1, Addr: "127.0.0.1:2"}}

	before, nodesBefore := runtime.NumGoroutine(), nodeGoroutines()
	nd, err := New(Config{
		NodeID: 0, Peers: peers, Server: s,
		ProbeInterval: time.Millisecond, AntiEntropyInterval: time.Millisecond,
		Logger: obs.DiscardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "background loops to start", func() bool {
		return nodeGoroutines() > nodesBefore
	})
	time.Sleep(20 * time.Millisecond) // a few probe/sweep ticks
	nd.Close()
	waitFor(t, "goroutines to return to the pre-New baseline", func() bool {
		return runtime.NumGoroutine() <= before && nodeGoroutines() <= nodesBefore
	})
	nd.Close() // idempotent
}

// TestClusterJournalReplayNoReReplication (satellite): a node restarted
// from its journal re-seeds its cache but must not re-replicate entries
// its replicas already hold — the replication hook only fires for fresh
// completions, never replayed ones.
func TestClusterJournalReplayNoReReplication(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "n0.journal")

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []Peer{{ID: 0, Addr: ln0.Addr().String()}, {ID: 1, Addr: ln1.Addr().String()}}

	boot := func(i int, ln net.Listener, journalPath string) *ringNode {
		s := server.New(server.Config{
			Devices: 1, QueueCap: 16, CacheCap: 32, Logger: obs.DiscardLogger(),
			JobIDPrefix: fmt.Sprintf("n%d-j", i), JournalPath: journalPath,
		})
		nd, err := New(Config{
			NodeID: i, Peers: peers, Server: s,
			ProbeInterval: -1, AntiEntropyInterval: -1, Logger: obs.DiscardLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: nd.Handler(s.Handler())}
		go hs.Serve(ln)
		return &ringNode{peer: peers[i], srv: s, node: nd, hs: hs}
	}
	n0 := boot(0, ln0, journal)
	n1 := boot(1, ln1, "")
	t.Cleanup(func() {
		n1.hs.Close()
		n1.node.Close()
		n1.srv.Close()
	})

	g, err := gpmetis.Grid2D(25, 25)
	if err != nil {
		t.Fatal(err)
	}
	req, key := reqOwnedBy(t, n0.node.Ring(), clusterGraphText(t, g), 0)
	st, _ := clusterSubmit(t, n0.base(), req)
	st = clusterPoll(t, n0.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	waitFor(t, "the replica to reach node 1", func() bool {
		_, ok := n1.srv.PeekCached(key)
		return ok && n0.node.Status().ReplicaPushes == 1
	})
	storesBefore := n1.node.Status().ReplicaStores

	// Restart node 0 from its journal.
	n0.hs.Close()
	n0.node.Close()
	n0.srv.Close()
	ln0b := relisten(t, peers[0].Addr)
	n0b := boot(0, ln0b, journal)
	t.Cleanup(func() {
		n0b.hs.Close()
		n0b.node.Close()
		n0b.srv.Close()
	})

	if _, ok := n0b.srv.PeekCached(key); !ok {
		t.Fatal("journal replay did not re-seed the completed result")
	}
	// Give a would-be re-replication time to fire, then pin that none did.
	time.Sleep(100 * time.Millisecond)
	if pushes := n0b.node.Status().ReplicaPushes; pushes != 0 {
		t.Errorf("restarted node re-replicated %d journal-replayed entries, want 0", pushes)
	}
	if got := n1.node.Status().ReplicaStores; got != storesBefore {
		t.Errorf("node 1 stored %d new replicas after the restart, want 0", got-storesBefore)
	}
	// Anti-entropy agrees: both sides already hold the entry.
	n0b.node.AntiEntropyNow()
	if p := n0b.node.Status().RepairPushed; p != 0 {
		t.Errorf("post-restart sweep pushed %d entries, want 0", p)
	}
	if p := n0b.node.Status().RepairPulled; p != 0 {
		t.Errorf("post-restart sweep pulled %d entries, want 0", p)
	}
}

// TestClusterDecommissionAndRejoin: /admin/decommission pushes the
// node's cached entries to their new owners, announces departure, fires
// the drain hook; Rejoin restores full membership and catch-up pulls
// what completed during the absence.
func TestClusterDecommissionAndRejoin(t *testing.T) {
	var decommFired [3]atomic.Bool
	nodes := startTestRingCfg(t, 3, nil, func(i int, c *Config) {
		c.OnDecommission = func() { decommFired[i].Store(true) }
	})

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	text := clusterGraphText(t, g)
	fullRing := nodes[0].node.Ring()
	req, key := reqOwnedBy(t, fullRing, text, 0)
	owner := nodes[0]

	st, _ := clusterSubmit(t, owner.base(), req)
	st = clusterPoll(t, owner.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}

	resp, err := http.Post(owner.base()+"/admin/decommission", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Pushed   int `json:"pushed"`
		Notified int `json:"notified"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("decommission: HTTP %d, %v", resp.StatusCode, err)
	}
	if out.Pushed < 1 || out.Notified != 2 {
		t.Errorf("decommission pushed %d notified %d, want >=1 and 2", out.Pushed, out.Notified)
	}
	waitFor(t, "the decommission hook to fire", func() bool { return decommFired[0].Load() })

	// Survivors route without node 0 and its cached work survived.
	for _, rn := range nodes[1:] {
		if size := len(rn.node.Ring().Peers()); size != 2 {
			t.Errorf("node %d ring has %d members after the leave, want 2", rn.peer.ID, size)
		}
	}
	jobsBefore := sumCounter(t, nodes[1:], "jobs.completed")
	st2, code := clusterSubmit(t, nodes[1].base(), req)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("post-decommission resubmit: code=%d cached=%t, want 200/true", code, st2.Cached)
	}
	for v, p := range st2.Result.Part {
		if p != st.Result.Part[v] {
			t.Fatalf("pushed result differs at vertex %d (%d vs %d)", v, p, st.Result.Part[v])
		}
	}
	if after := sumCounter(t, nodes[1:], "jobs.completed"); after != jobsBefore {
		t.Errorf("resubmit of decommission-pushed work recomputed: %v -> %v", jobsBefore, after)
	}

	// Work completes while node 0 is out; its key belongs to node 0 in
	// the full ring, so rejoin catch-up must pull it.
	req2, key2 := reqOwnedBy(t, fullRing, clusterGraphText(t, mustGrid(t, 31, 31)), 0)
	st3, _ := clusterSubmit(t, nodes[1].base(), req2)
	st3 = clusterPoll(t, nodes[1].base(), st3.ID)
	if st3.State != server.StateDone {
		t.Fatalf("absence-window job state %s, error %q", st3.State, st3.Error)
	}
	time.Sleep(50 * time.Millisecond) // let RF=2 replication settle among survivors

	pulled := owner.node.Rejoin()
	if pulled < 1 {
		t.Errorf("rejoin catch-up pulled %d entries, want >= 1", pulled)
	}
	if _, ok := owner.srv.PeekCached(key2); !ok {
		t.Error("rejoined owner lacks the entry completed during its absence")
	}
	if size := len(owner.node.Ring().Peers()); size != 3 {
		t.Errorf("rejoined node's ring has %d members, want 3", size)
	}
	for _, rn := range nodes[1:] {
		waitFor(t, "survivors to readmit node 0", func() bool {
			return len(rn.node.Ring().Peers()) == 3
		})
	}
	_ = key
}

func mustGrid(t *testing.T, w, h int) *gpmetis.Graph {
	t.Helper()
	g, err := gpmetis.Grid2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClusterMembershipChangeUnderLoad (satellite): adding then removing
// a ring member while submissions flow loses no in-flight job, and
// ownership disruption stays at the consistent-hash minimum — only keys
// owned by the changed node move.
func TestClusterMembershipChangeUnderLoad(t *testing.T) {
	nodes := startTestRing(t, 3)
	peers3 := nodes[0].node.Ring().Peers()

	// Boot the joining member with the full four-member list.
	ln4, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers4 := append(append([]Peer(nil), peers3...), Peer{ID: 3, Addr: ln4.Addr().String()})
	s4 := server.New(server.Config{
		Devices: 1, QueueCap: 16, CacheCap: 32, Logger: obs.DiscardLogger(),
		JobIDPrefix: "n3-j",
	})
	nd4, err := New(Config{
		NodeID: 3, Peers: peers4, Server: s4,
		ProbeInterval: -1, AntiEntropyInterval: -1, Logger: obs.DiscardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs4 := &http.Server{Handler: nd4.Handler(s4.Handler())}
	go hs4.Serve(ln4)
	t.Cleanup(func() {
		hs4.Close()
		nd4.Close()
		s4.Close()
	})

	// Background submitter: distinct digests round-robin over the
	// original members, collected for the post-run completeness check.
	type accepted struct{ base, id string }
	var mu sync.Mutex
	var subs []accepted
	var errs []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	graphText := clusterGraphText(t, mustGrid(t, 12, 12))
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed++
			body, err := json.Marshal(server.SubmitRequest{Graph: graphText, K: 2, Seed: int64(seed)})
			if err != nil {
				return
			}
			base := nodes[seed%3].base()
			resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("seed %d: %v", seed, err))
				mu.Unlock()
				continue
			}
			var st server.JobStatus
			decodeErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode >= 400 || decodeErr != nil || st.ID == "" {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("seed %d: HTTP %d decode=%v id=%q",
					seed, resp.StatusCode, decodeErr, st.ID))
				mu.Unlock()
				continue
			}
			mu.Lock()
			subs = append(subs, accepted{base: base, id: st.ID})
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(subs)
	}

	waitFor(t, "load to build before the join", func() bool { return count() >= 15 })
	for _, rn := range nodes {
		if err := rn.node.UpdatePeers(peers4); err != nil {
			t.Fatalf("node %d UpdatePeers(add): %v", rn.peer.ID, err)
		}
	}
	waitFor(t, "load to flow through the 4-node ring", func() bool { return count() >= 30 })
	for _, rn := range nodes {
		if err := rn.node.UpdatePeers(peers3); err != nil {
			t.Fatalf("node %d UpdatePeers(remove): %v", rn.peer.ID, err)
		}
	}
	waitFor(t, "load to flow after the removal", func() bool { return count() >= 40 })
	close(stop)
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("%d submissions failed during membership changes; first: %s", len(errs), errs[0])
	}
	// No accepted job is lost: every one completes, polled via its entry
	// node (forwarded jobs are proxied to wherever they were pinned).
	for _, a := range subs {
		st := clusterPoll(t, a.base, a.id)
		if st.State != server.StateDone {
			t.Fatalf("job %s finished %s, error %q", a.id, st.State, st.Error)
		}
	}
	for _, rn := range nodes {
		if size := len(rn.node.Ring().Peers()); size != 3 {
			t.Errorf("node %d ring has %d members after the removal, want 3", rn.peer.ID, size)
		}
	}

	// Ownership disruption is bounded exactly as ring_test pins it: keys
	// that changed owner across the add must belong to the added node.
	full3, err := NewRing(peers3, 0)
	if err != nil {
		t.Fatal(err)
	}
	full4, err := NewRing(peers4, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, key := range testKeys(2000) {
		b, a := full3.Owner(key), full4.Owner(key)
		if b.ID != a.ID {
			moved++
			if a.ID != 3 {
				t.Fatalf("key %s moved from node %d to surviving node %d — disruption is not bounded",
					key, b.ID, a.ID)
			}
		}
	}
	if moved == 0 {
		t.Error("the added node took no keys — vnode spread is broken")
	}
}
