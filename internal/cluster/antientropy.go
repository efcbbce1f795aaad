package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// Anti-entropy: a background sweep in which this node exchanges
// per-vnode-range digest summaries with each live peer it shares
// replica sets with (POST /internal/cache/summary, one round trip per
// peer). Ranges whose {count, hash} disagree come back with the peer's
// digest list; the requester then pushes what the peer misses and pulls
// what it misses itself — so divergence left by crashes, evictions, or
// pushes skipped while a replica was down heals without any coordination
// beyond the shared ring. Besides the periodic sweep, the prober runs
// one exchange with a peer the moment it reinstates (spawnSync), so the
// replicas it missed while down arrive without waiting for the sweep.

// rangeSummary is one vnode range's digest fingerprint: how many
// relevant entries fall in it and a hash over their sorted digests.
type rangeSummary struct {
	Range int    `json:"range"`
	Count int    `json:"count"`
	Hash  string `json:"hash"`
}

// summaryRequest is the sweep's wire form: who is asking, and its
// summaries for every range where the pair shares replica duty.
type summaryRequest struct {
	Node   int            `json:"node"`
	Ranges []rangeSummary `json:"ranges"`
}

// rangeDigests is one mismatched range in the reply, carrying the
// responder's full digest list for that range (possibly empty).
type rangeDigests struct {
	Range   int      `json:"range"`
	Digests []string `json:"digests"`
}

type summaryResponse struct {
	Ranges []rangeDigests `json:"ranges"`
}

// antiEntropyLoop runs the sweep at the configured cadence until Close.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.AntiEntropyNow()
		}
	}
}

// AntiEntropyNow runs one full repair sweep synchronously: every live,
// non-departed peer is offered a summary exchange. It is the loop body,
// the rejoin catch-up, and the test/chaos lever.
func (n *Node) AntiEntropyNow() {
	if n.cfg.Replicas <= 1 {
		return
	}
	for _, p := range n.otherPeers() {
		if n.peerIsDown(p) {
			continue
		}
		n.syncWith(p)
	}
}

// spawnSync starts one background summary exchange with a peer the
// prober just reinstated.
func (n *Node) spawnSync(p Peer) {
	if n.cfg.Replicas <= 1 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.syncWith(p)
	}()
}

// peerIsDown reports the health verdict for p (false for unknown peers).
func (n *Node) peerIsDown(p Peer) bool {
	h := n.peerHealth(p.ID)
	return h != nil && h.down()
}

// pairSummaries builds this node's view of the (self, peer) pair: for
// every cached digest whose replica set contains both nodes, the digest
// grouped by vnode range, plus the per-range fingerprints.
func (n *Node) pairSummaries(ring *Ring, peerID int) (map[int][]string, []rangeSummary) {
	byRange := map[int][]string{}
	for _, key := range n.srv.CachedKeys() {
		if !n.replicaSetHas(ring, key, n.self.ID) || !n.replicaSetHas(ring, key, peerID) {
			continue
		}
		idx := ring.RangeOf(key)
		byRange[idx] = append(byRange[idx], key)
	}
	sums := make([]rangeSummary, 0, len(byRange))
	for idx, digests := range byRange {
		sort.Strings(digests)
		sums = append(sums, rangeSummary{Range: idx, Count: len(digests), Hash: digestSetHash(digests)})
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].Range < sums[j].Range })
	return byRange, sums
}

// digestSetHash fingerprints a sorted digest list.
func digestSetHash(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// syncWith runs one summary exchange + repair against a peer. Both legs
// of the exchange and every repair transfer are charged to the modeled
// network (inside pushEntry/peekRemote for the transfers). The whole
// pairwise round — the exchange plus its repairs — shares one trace id,
// recorded as spans in the node's span store and stamped on the repair
// event.
func (n *Node) syncWith(p Peer) {
	trace := obs.NewTraceID()
	ring := n.currentRing()
	local, sums := n.pairSummaries(ring, p.ID)
	payload, err := json.Marshal(summaryRequest{Node: n.self.ID, Ranges: sums})
	if err != nil {
		return
	}
	n.net.Charge(len(payload))
	req, err := http.NewRequest(http.MethodPost,
		"http://"+p.Addr+"/internal/cache/summary", bytes.NewReader(payload))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := n.doRPC(n.client, p, rpcSummary, req)
	n.recordRoundSpan(trace, "anti-entropy-summary", t0, time.Now(),
		spanAttrs(p, "ranges", len(sums), "ok", err == nil))
	if err != nil {
		n.strikePeer(p, "anti-entropy: "+err.Error())
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		n.strikePeer(p, "anti-entropy read: "+err.Error())
		return
	}
	n.net.Charge(len(b))
	if resp.StatusCode != http.StatusOK {
		return
	}
	var sr summaryResponse
	if json.Unmarshal(b, &sr) != nil {
		return
	}
	n.clearStrikes(p)
	n.repairRanges(ring, p, local, sr.Ranges, trace)
}

// repairRanges reconciles the mismatched ranges a summary exchange
// surfaced: pull digests the peer holds and this node misses (when this
// node is in their replica set), push digests this node holds and the
// peer misses.
func (n *Node) repairRanges(ring *Ring, p Peer, local map[int][]string, mismatched []rangeDigests, trace string) {
	pulled, pushed := 0, 0
	t0 := time.Now()
	for _, rd := range mismatched {
		peerHas := make(map[string]bool, len(rd.Digests))
		for _, d := range rd.Digests {
			peerHas[d] = true
		}
		localList := local[rd.Range]
		localHas := make(map[string]bool, len(localList))
		for _, d := range localList {
			localHas[d] = true
		}
		for _, d := range rd.Digests {
			if localHas[d] || !n.replicaSetHas(ring, d, n.self.ID) {
				continue
			}
			raw, found, err := n.peekRemote(p, d)
			var res server.JobResult
			if err == nil && found {
				err = json.Unmarshal(raw, &res)
			}
			if err != nil {
				n.strikePeer(p, "repair pull: "+err.Error())
				return
			}
			if found && n.srv.StoreReplicated(d, &res) {
				n.reg.Add("cluster.repair_pulled", 1)
				pulled++
			}
		}
		for _, d := range localList {
			if peerHas[d] {
				continue
			}
			res, ok := n.srv.PeekCached(d)
			if !ok {
				continue // evicted since the summary was built
			}
			if err := n.pushEntry(p, d, res, rpcRepairPut); err != nil {
				n.strikePeer(p, "repair push: "+err.Error())
				return
			}
			n.reg.Add("cluster.repair_pushed", 1)
			pushed++
		}
	}
	if pulled > 0 || pushed > 0 {
		n.recordRoundSpan(trace, "anti-entropy-repair", t0, time.Now(),
			spanAttrs(p, "pulled", pulled, "pushed", pushed))
		n.srv.RecordTracedEvent(obs.EvClusterRepair, trace,
			fmt.Sprintf("anti-entropy with node %d: pulled %d, pushed %d", p.ID, pulled, pushed))
		n.log.Info("anti-entropy repair", "peer", p.ID, "pulled", pulled, "pushed", pushed,
			"trace", trace)
	}
}

// handleSummary answers a peer's anti-entropy exchange: compute this
// node's summaries for the same pair, and reply with the full digest
// lists of every range whose fingerprints disagree. The requester pays
// the modeled network for both legs and performs the repairs.
func (n *Node) handleSummary(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("read body: %v", err), Code: server.CodeBadRequest})
		return
	}
	var req summaryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("decode summary: %v", err), Code: server.CodeBadRequest})
		return
	}
	if req.Node == n.self.ID || !n.knownPeer(req.Node) {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{
			Error: fmt.Sprintf("summary from unknown ring node %d", req.Node),
			Code:  server.CodeBadRequest,
		})
		return
	}
	localByRange, localSums := n.pairSummaries(n.currentRing(), req.Node)
	theirs := make(map[int]rangeSummary, len(req.Ranges))
	for _, s := range req.Ranges {
		theirs[s.Range] = s
	}
	mine := make(map[int]rangeSummary, len(localSums))
	for _, s := range localSums {
		mine[s.Range] = s
	}
	seen := map[int]bool{}
	var out []rangeDigests
	addMismatch := func(idx int) {
		if seen[idx] {
			return
		}
		seen[idx] = true
		t, okT := theirs[idx]
		m, okM := mine[idx]
		if okT && okM && t.Hash == m.Hash && t.Count == m.Count {
			return
		}
		digests := localByRange[idx]
		if digests == nil {
			digests = []string{}
		}
		out = append(out, rangeDigests{Range: idx, Digests: digests})
	}
	for idx := range theirs {
		addMismatch(idx)
	}
	for idx := range mine {
		addMismatch(idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Range < out[j].Range })
	writeJSON(w, http.StatusOK, summaryResponse{Ranges: out})
}

// knownPeer reports whether id is a configured, non-departed member.
func (n *Node) knownPeer(id int) bool {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	if n.departed[id] {
		return false
	}
	for _, p := range n.peersAll {
		if p.ID == id {
			return true
		}
	}
	return false
}
