package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gpmetis"
	"gpmetis/internal/cluster"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// chaosReplication: a seeded kill storm against a 4-node RF=2 ring that
// pins the replication durability contract:
//
//   - with any one node dead (up to R−1), every digest that finished
//     replicating is still served — bit-identical and at zero modeled
//     partition cost — by the survivors;
//   - a completion whose replica target is down skips the push, and the
//     restarted target holds that digest once catch-up has run;
//   - a killed node loses its process AND its cache; after restart,
//     rejoin catch-up and the survivors' reinstatement syncs restore its
//     full replica duty, so the next kill of a different node still
//     loses nothing;
//   - all replica and repair traffic lands in the ring's modeled network
//     accounting.
func chaosReplication(rng *rand.Rand) error {
	const nNodes = 4
	lns := make([]net.Listener, nNodes)
	peers := make([]cluster.Peer, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: i, Addr: ln.Addr().String()}
	}
	boot := func(i int, ln net.Listener) (*ringMember, error) {
		s := server.New(server.Config{
			Devices: 1, QueueCap: 32, CacheCap: 64, Logger: obs.DiscardLogger(),
			JobIDPrefix: fmt.Sprintf("n%d-j", i),
		})
		nd, err := cluster.New(cluster.Config{
			NodeID: i, Peers: peers, Server: s, Replicas: 2,
			ProbeInterval: 20 * time.Millisecond, AntiEntropyInterval: -1,
			Logger: obs.DiscardLogger(),
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		hs := &http.Server{Handler: nd.Handler(s.Handler())}
		go hs.Serve(ln)
		return &ringMember{peer: peers[i], srv: s, node: nd, hs: hs, alive: true}, nil
	}
	members := make([]*ringMember, nNodes)
	for i := range members {
		m, err := boot(i, lns[i])
		if err != nil {
			return err
		}
		members[i] = m
	}
	defer func() {
		for _, m := range members {
			m.hs.Close()
			m.node.Close()
			m.srv.Close()
		}
	}()
	ring := members[0].node.Ring() // static member list; every view agrees

	texts := make([]string, 2)
	for i := range texts {
		n := 18 + rng.Intn(10)
		g, err := gpmetis.Grid2D(n, n+rng.Intn(5))
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := gpmetis.WriteGraph(&sb, g); err != nil {
			return err
		}
		texts[i] = sb.String()
	}

	// replicaSet is the pair of members that must hold a digest (RF=2).
	replicaSet := func(key string) []*ringMember {
		succs := ring.Successors(key)
		return []*ringMember{members[succs[0].ID], members[succs[1].ID]}
	}
	fullyReplicated := func(key string) bool {
		for _, m := range replicaSet(key) {
			if _, ok := m.srv.PeekCached(key); !ok {
				return false
			}
		}
		return true
	}
	liveModeledSeconds := func() (float64, error) {
		total := 0.0
		for _, m := range members {
			if !m.alive {
				continue
			}
			v, err := ringCounterValue(m.base(), "modeled.seconds")
			if err != nil {
				return 0, fmt.Errorf("node %d metrics: %w", m.peer.ID, err)
			}
			total += v
		}
		return total, nil
	}
	netModeled := func() float64 {
		total := 0.0
		for _, m := range members {
			total += m.node.Status().NetModeledSeconds
		}
		return total
	}

	// Phase 1: distinct jobs complete and replicate fully.
	type entry struct {
		req server.SubmitRequest
		key string
		res *server.JobResult
	}
	var entries []entry
	total := 4 + rng.Intn(3)
	for i := 0; i < total; i++ {
		req := server.SubmitRequest{
			Graph: texts[rng.Intn(len(texts))],
			K:     2 + rng.Intn(5),
			Seed:  int64(100 + i),
		}
		keyReq := req
		key, err := server.KeyForRequest(&keyReq)
		if err != nil {
			return err
		}
		m := members[rng.Intn(nNodes)]
		st, code, err := ringSubmit(m.base(), req)
		if err != nil || code >= 400 {
			return fmt.Errorf("phase-1 submit %d via node %d: code=%d err=%v", i, m.peer.ID, code, err)
		}
		if st.status.State != server.StateDone {
			if _, err := ringAwait(m.base(), st.status.ID); err != nil {
				return fmt.Errorf("phase-1 job %d: %w", i, err)
			}
		}
		entries = append(entries, entry{req: req, key: key})
	}
	for i := range entries {
		e := &entries[i]
		if err := waitChaos(10*time.Second, func() bool { return fullyReplicated(e.key) }); err != nil {
			return fmt.Errorf("digest %.12s never fully replicated: %w", e.key, err)
		}
		res, ok := replicaSet(e.key)[0].srv.PeekCached(e.key)
		if !ok {
			return fmt.Errorf("digest %.12s vanished from its owner", e.key)
		}
		e.res = res
	}
	netAfterPhase1 := netModeled()
	if netAfterPhase1 <= 0 {
		return fmt.Errorf("replication charged no modeled network time")
	}

	// A restarted node comes back with a fresh registry, so each victim's
	// network charge is carried over before it dies.
	carried := 0.0
	rounds := 1 + rng.Intn(2)
	for round := 0; round < rounds; round++ {
		victim := members[rng.Intn(nNodes)]
		carried += victim.node.Status().NetModeledSeconds

		// Kill the victim: process and cache both die, as kill -9 would.
		victim.hs.Close()
		victim.node.Close()
		victim.srv.Close()
		victim.alive = false
		if verbose {
			fmt.Printf("chaos: replication round %d: killed node %d\n", round, victim.peer.ID)
		}

		// Every replicated digest is still served by the survivors:
		// bit-identical, zero modeled partition seconds anywhere.
		modeledBefore, err := liveModeledSeconds()
		if err != nil {
			return err
		}
		for _, e := range entries {
			var m *ringMember
			for {
				m = members[rng.Intn(nNodes)]
				if m.alive {
					break
				}
			}
			st, code, err := ringSubmit(m.base(), e.req)
			if err != nil || code >= 400 {
				return fmt.Errorf("round %d: replicated digest %.12s unreadable via node %d: code=%d err=%v",
					round, e.key, m.peer.ID, code, err)
			}
			if st.status.State != server.StateDone || !st.status.Cached {
				return fmt.Errorf("round %d: digest %.12s recomputed (state=%s cached=%t); replica read must be a cache hit",
					round, e.key, st.status.State, st.status.Cached)
			}
			if st.status.Result.EdgeCut != e.res.EdgeCut {
				return fmt.Errorf("round %d: digest %.12s cut changed: %d -> %d",
					round, e.key, e.res.EdgeCut, st.status.Result.EdgeCut)
			}
			for v, p := range st.status.Result.Part {
				if p != e.res.Part[v] {
					return fmt.Errorf("round %d: digest %.12s differs at vertex %d (%d vs %d)",
						round, e.key, v, p, e.res.Part[v])
				}
			}
		}
		modeledAfter, err := liveModeledSeconds()
		if err != nil {
			return err
		}
		if modeledAfter != modeledBefore {
			return fmt.Errorf("round %d: replica reads charged %.9f modeled partition seconds",
				round, modeledAfter-modeledBefore)
		}

		// A completion whose replica set includes the dead node lands only
		// on the surviving set member; the push to the dead one is skipped.
		var missedReq server.SubmitRequest
		var missedKey string
		var survivor *ringMember
		for seed := int64(1000 * (round + 1)); ; seed++ {
			req := server.SubmitRequest{Graph: texts[0], K: 3, Seed: seed}
			keyReq := req
			key, err := server.KeyForRequest(&keyReq)
			if err != nil {
				return err
			}
			set := replicaSet(key)
			if set[0] == victim {
				missedReq, missedKey, survivor = req, key, set[1]
				break
			}
			if set[1] == victim {
				missedReq, missedKey, survivor = req, key, set[0]
				break
			}
		}
		st, code, err := ringSubmit(survivor.base(), missedReq)
		if err != nil || code >= 400 {
			return fmt.Errorf("round %d: submit while node %d is dead: code=%d err=%v",
				round, victim.peer.ID, code, err)
		}
		if st.status.State != server.StateDone {
			if _, err := ringAwait(survivor.base(), st.status.ID); err != nil {
				return fmt.Errorf("round %d: job submitted while node %d is dead: %w",
					round, victim.peer.ID, err)
			}
		}
		missedRes, ok := survivor.srv.PeekCached(missedKey)
		if !ok {
			return fmt.Errorf("round %d: result missing from node %d's cache", round, survivor.peer.ID)
		}
		entries = append(entries, entry{req: missedReq, key: missedKey, res: missedRes})

		// Restart the victim from nothing and bring it back to full
		// replica duty: rejoin catch-up pulls what it owns, including the
		// digest completed while it was dead.
		ln := relistenChaos(victim.peer.Addr)
		if ln == nil {
			return fmt.Errorf("round %d: cannot rebind %s", round, victim.peer.Addr)
		}
		fresh, err := boot(victim.peer.ID, ln)
		if err != nil {
			return err
		}
		members[victim.peer.ID] = fresh
		if err := waitChaos(20*time.Second, func() bool {
			fresh.node.Rejoin()
			for _, e := range entries {
				if !fullyReplicated(e.key) {
					return false
				}
			}
			return true
		}); err != nil {
			return fmt.Errorf("round %d: node %d never recovered full replica duty: %w",
				round, fresh.peer.ID, err)
		}
		got, ok := fresh.srv.PeekCached(missedKey)
		if !ok {
			return fmt.Errorf("round %d: restarted node %d lacks digest %.12s completed while it was dead",
				round, fresh.peer.ID, missedKey)
		}
		if got.EdgeCut != missedRes.EdgeCut {
			return fmt.Errorf("round %d: caught-up digest %.12s cut %d, want %d",
				round, missedKey, got.EdgeCut, missedRes.EdgeCut)
		}
		if verbose {
			fmt.Printf("chaos: replication round %d: node %d rejoined, %d digests intact\n",
				round, fresh.peer.ID, len(entries))
		}
	}

	if net := carried + netModeled(); net <= netAfterPhase1 {
		return fmt.Errorf("repair traffic charged no modeled network time (%.9f -> %.9f)",
			netAfterPhase1, net)
	}
	return nil
}

// waitChaos polls cond until it holds or the deadline passes.
func waitChaos(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// relistenChaos rebinds a just-released loopback address, retrying while
// the port frees up; nil after 5s.
func relistenChaos(addr string) net.Listener {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ringCounterValue reads one unlabeled registry series from a node's
// /metrics scrape: "modeled.seconds" reads gpmetisd_modeled_seconds, and
// an absent series reads 0.
func ringCounterValue(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	prefix := "gpmetisd_" + strings.ReplaceAll(name, ".", "_") + " "
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, nil
}
