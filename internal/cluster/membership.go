package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// Membership changes: the ring stays configuration-driven (peers.json),
// but the configured list and the effective ring can now diverge — a
// decommissioned node announces its departure (POST /internal/ring/leave
// to every peer) and is excluded from routing until a join announcement
// (or a peers.json reload) brings it back. Ownership disruption is the
// consistent-hash minimum: only keys owned by the changed node move.

// ringChange is the wire body of leave/join announcements.
type ringChange struct {
	Node int `json:"node"`
}

// rebuildRingLocked recomputes the effective ring from the configured
// peer list minus departed members. Callers hold ringMu for writing.
// Removing the last member is refused so routing always has a ring.
func (n *Node) rebuildRingLocked() error {
	var members []Peer
	for _, p := range n.peersAll {
		if !n.departed[p.ID] {
			members = append(members, p)
		}
	}
	if len(members) == 0 {
		return fmt.Errorf("cluster: refusing membership change that empties the ring")
	}
	ring, err := NewRing(members, n.cfg.VNodes)
	if err != nil {
		return err
	}
	n.ring = ring
	return nil
}

// UpdatePeers swaps in a new configured member list (a peers.json
// reload): the effective ring is rebuilt, departure marks for members
// no longer configured are forgotten, and health entries are synced —
// existing peers keep their strike/quarantine state, new peers start
// fresh. This node must appear in the new list.
func (n *Node) UpdatePeers(peers []Peer) error {
	if len(peers) == 0 {
		return fmt.Errorf("cluster: empty peer list")
	}
	present := map[int]bool{}
	selfPresent := false
	for _, p := range peers {
		if strings.TrimSpace(p.Addr) == "" {
			return fmt.Errorf("cluster: node %d has no address", p.ID)
		}
		if present[p.ID] {
			return fmt.Errorf("cluster: duplicate node id %d", p.ID)
		}
		present[p.ID] = true
		if p.ID == n.self.ID {
			selfPresent = true
		}
	}
	if !selfPresent {
		return fmt.Errorf("cluster: node id %d not in the new peer list", n.self.ID)
	}
	sorted := append([]Peer(nil), peers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	n.ringMu.Lock()
	oldAll, oldDeparted := n.peersAll, n.departed
	n.peersAll = sorted
	for id := range n.departed {
		if !present[id] {
			delete(n.departed, id)
		}
	}
	if err := n.rebuildRingLocked(); err != nil {
		n.peersAll, n.departed = oldAll, oldDeparted
		n.ringMu.Unlock()
		return err
	}
	for _, p := range sorted {
		if p.ID != n.self.ID && n.health[p.ID] == nil {
			n.health[p.ID] = newNodeHealth(n.reg, p.ID)
			n.declarePeerSeries(p.ID)
		}
	}
	for id := range n.health {
		if !present[id] {
			delete(n.health, id)
			n.deletePeerSeries(id)
		}
	}
	size := len(sorted)
	n.reg.Set("cluster.ring_size", float64(size))
	n.ringMu.Unlock()

	n.srv.RecordEvent(obs.EvClusterMembership,
		fmt.Sprintf("peer list reloaded: %d configured members", size))
	n.log.Info("peer list updated", "members", size)
	return nil
}

// handleLeave processes a peer's departure announcement: mark it
// departed and rebuild the effective ring without it.
func (n *Node) handleLeave(w http.ResponseWriter, r *http.Request) {
	id, ok := decodeRingChange(w, r)
	if !ok {
		return
	}
	if id == n.self.ID {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{
			Error: "a node cannot be told of its own departure; use /admin/decommission",
			Code:  server.CodeBadRequest,
		})
		return
	}
	n.ringMu.Lock()
	if n.departed[id] {
		n.ringMu.Unlock()
		writeJSON(w, http.StatusOK, map[string]bool{"departed": true})
		return
	}
	n.departed[id] = true
	err := n.rebuildRingLocked()
	if err != nil {
		delete(n.departed, id)
	}
	n.ringMu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusConflict,
			server.ErrorResponse{Error: err.Error(), Code: server.CodeBadRequest})
		return
	}
	n.srv.RecordEvent(obs.EvClusterMembership, fmt.Sprintf("node %d left the ring", id))
	n.log.Info("ring member departed", "peer", id)
	writeJSON(w, http.StatusOK, map[string]bool{"departed": true})
}

// handleJoin processes a departed peer's return announcement: clear its
// departure mark, rebuild the ring, and reset its health to up so
// traffic flows immediately instead of waiting out the probe backoff.
// The joining node's own catch-up (Rejoin → AntiEntropyNow) pushes and
// pulls against every peer, so nothing is sent from here.
func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	id, ok := decodeRingChange(w, r)
	if !ok {
		return
	}
	if id == n.self.ID {
		writeJSON(w, http.StatusOK, map[string]bool{"joined": true})
		return
	}
	n.ringMu.Lock()
	known := false
	for _, p := range n.peersAll {
		if p.ID == id {
			known = true
			break
		}
	}
	if !known {
		n.ringMu.Unlock()
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{
			Error: fmt.Sprintf("join from unknown ring node %d", id),
			Code:  server.CodeBadRequest,
		})
		return
	}
	delete(n.departed, id)
	n.rebuildRingLocked()
	n.health[id] = newNodeHealth(n.reg, id)
	n.ringMu.Unlock()
	n.srv.RecordEvent(obs.EvClusterMembership, fmt.Sprintf("node %d rejoined the ring", id))
	n.log.Info("ring member rejoined", "peer", id)
	writeJSON(w, http.StatusOK, map[string]bool{"joined": true})
}

// decodeRingChange reads a leave/join body, writing the error response
// itself on failure.
func decodeRingChange(w http.ResponseWriter, r *http.Request) (int, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("read body: %v", err), Code: server.CodeBadRequest})
		return 0, false
	}
	var rc ringChange
	if err := json.Unmarshal(body, &rc); err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("decode body: %v", err), Code: server.CodeBadRequest})
		return 0, false
	}
	return rc.Node, true
}

// announce posts a leave/join announcement about node id to a peer,
// charged to the modeled network like any other inter-node message.
func (n *Node) announce(p Peer, path string, id int) error {
	payload, err := json.Marshal(ringChange{Node: id})
	if err != nil {
		return err
	}
	n.net.Charge(len(payload))
	req, err := http.NewRequest(http.MethodPost, "http://"+p.Addr+path,
		strings.NewReader(string(payload)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.doRPC(n.client, p, rpcAnnounce, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	n.net.Charge(len(b))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("announce %s status %d", path, resp.StatusCode)
	}
	return nil
}

// handleDecommission retires this node safely (POST /admin/decommission):
//
//  1. push every locally cached entry to its replica set in the ring
//     that remains after this node leaves, so no cached work is lost;
//  2. announce departure to every peer (POST /internal/ring/leave);
//  3. adopt the shrunk ring locally, so submissions arriving during the
//     drain forward to their new owners instead of being served here;
//  4. fire Config.OnDecommission, which the daemon wires to its
//     existing SIGTERM drain-and-exit path.
//
// The response reports how many entries were pushed and how many peers
// acknowledged the announcement.
func (n *Node) handleDecommission(w http.ResponseWriter, r *http.Request) {
	n.ringMu.Lock()
	if n.departed[n.self.ID] {
		n.ringMu.Unlock()
		writeJSON(w, http.StatusConflict, server.ErrorResponse{
			Error: "node is already decommissioning", Code: server.CodeBadRequest,
		})
		return
	}
	var survivors []Peer
	for _, p := range n.peersAll {
		if p.ID != n.self.ID && !n.departed[p.ID] {
			survivors = append(survivors, p)
		}
	}
	n.ringMu.Unlock()
	if len(survivors) == 0 {
		writeJSON(w, http.StatusConflict, server.ErrorResponse{
			Error: "cannot decommission the last ring member", Code: server.CodeBadRequest,
		})
		return
	}
	shrunk, err := NewRing(survivors, n.cfg.VNodes)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			server.ErrorResponse{Error: err.Error(), Code: server.CodeBadRequest})
		return
	}

	// Push owned entries to their new owners. Every cached entry is
	// offered to the first Replicas members of its successor walk in the
	// shrunk ring; receivers dedup by digest, so entries they already
	// replicate cost one round trip and no storage. The whole retirement
	// — pushes plus announcements — is one trace.
	trace := obs.NewTraceID()
	t0 := time.Now()
	pushed := 0
	for _, key := range n.srv.CachedKeys() {
		res, ok := n.srv.PeekCached(key)
		if !ok {
			continue
		}
		for _, q := range n.replicaSet(shrunk, key) {
			if n.peerIsDown(q) {
				continue
			}
			if err := n.pushEntry(q, key, res, rpcReplicaPut); err != nil {
				n.strikePeer(q, "decommission push: "+err.Error())
				continue
			}
			n.clearStrikes(q)
			pushed++
		}
	}

	notified := 0
	for _, p := range survivors {
		if err := n.announce(p, "/internal/ring/leave", n.self.ID); err != nil {
			n.log.Warn("decommission announce failed", "peer", p.ID, "error", err.Error())
			continue
		}
		notified++
	}

	n.ringMu.Lock()
	n.departed[n.self.ID] = true
	n.ring = shrunk
	n.ringMu.Unlock()

	n.recordRoundSpan(trace, "decommission", t0, time.Now(),
		map[string]any{"pushed": pushed, "notified": notified})
	n.srv.RecordTracedEvent(obs.EvClusterDecommission, trace,
		fmt.Sprintf("decommissioned: %d entries pushed, %d of %d peers notified",
			pushed, notified, len(survivors)))
	n.log.Info("node decommissioned", "entries_pushed", pushed,
		"peers_notified", notified, "peers", len(survivors))
	writeJSON(w, http.StatusOK, map[string]int{"pushed": pushed, "notified": notified})

	if n.cfg.OnDecommission != nil {
		go n.cfg.OnDecommission()
	}
}

// Rejoin announces this node's return to every peer and runs the
// catch-up sweep, pulling the entries it now owns or replicates. It is
// safe on every startup: announcements are idempotent and the sweep is
// a no-op when nothing diverged. Returns how many entries catch-up
// pulled.
func (n *Node) Rejoin() int64 {
	before := n.reg.Get("cluster.repair_pulled")
	// A node that decommissioned without exiting still routes on the
	// shrunk ring; returning to duty starts with readopting itself.
	n.ringMu.Lock()
	if n.departed[n.self.ID] {
		delete(n.departed, n.self.ID)
		if err := n.rebuildRingLocked(); err != nil {
			n.departed[n.self.ID] = true
			n.ringMu.Unlock()
			n.log.Warn("rejoin: ring rebuild failed", "error", err.Error())
			return 0
		}
	}
	n.ringMu.Unlock()
	for _, p := range n.otherPeers() {
		if err := n.announce(p, "/internal/ring/join", n.self.ID); err != nil {
			n.log.Info("rejoin announce failed", "peer", p.ID, "error", err.Error())
		}
	}
	n.AntiEntropyNow()
	return int64(n.reg.Get("cluster.repair_pulled") - before)
}

// handleRejoin runs Rejoin on demand (POST /admin/rejoin) — the
// operator lever for bringing a restarted or previously decommissioned
// node back into full replica duty.
func (n *Node) handleRejoin(w http.ResponseWriter, r *http.Request) {
	pulled := n.Rejoin()
	writeJSON(w, http.StatusOK, map[string]int64{"pulled": pulled})
}
