package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpmetis/internal/obs"
)

// Hinted handoff: when a replica target is quarantined (or a push to it
// fails), the digest is recorded as a hint instead of dropped. Hints
// are deduped per peer by digest, optionally journaled to one JSONL
// file per peer so they survive a restart of the hinting node, and
// drained — with backoff — when the prober reinstates the peer.

// hintTable holds the per-peer handoff backlog.
type hintTable struct {
	dir string // "" = memory only

	mu     sync.Mutex
	byPeer map[int]*peerHints
}

type peerHints struct {
	keys     map[string]bool // dedup by digest
	order    []string        // FIFO delivery order
	draining bool
}

type hintRecord struct {
	Key string `json:"key"`
}

func newHintTable(dir string) *hintTable {
	return &hintTable{dir: dir, byPeer: map[int]*peerHints{}}
}

// add records one hint, returning false when the peer's backlog already
// holds that digest (the dedup the replay/re-replication tests pin).
func (t *hintTable) add(peerID int, key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.byPeer[peerID]
	if ph == nil {
		ph = &peerHints{keys: map[string]bool{}}
		t.byPeer[peerID] = ph
	}
	if ph.keys[key] {
		return false
	}
	ph.keys[key] = true
	ph.order = append(ph.order, key)
	t.persistLocked(peerID)
	return true
}

// take removes and returns the peer's backlog in delivery order; the
// caller re-adds what it could not deliver via requeue.
func (t *hintTable) take(peerID int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.byPeer[peerID]
	if ph == nil || len(ph.order) == 0 {
		return nil
	}
	out := ph.order
	ph.order = nil
	ph.keys = map[string]bool{}
	t.persistLocked(peerID)
	return out
}

// requeue returns undelivered hints to the front of the peer's backlog,
// ahead of anything added while the drain was running.
func (t *hintTable) requeue(peerID int, keys []string) {
	if len(keys) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.byPeer[peerID]
	if ph == nil {
		ph = &peerHints{keys: map[string]bool{}}
		t.byPeer[peerID] = ph
	}
	merged := make([]string, 0, len(keys)+len(ph.order))
	for _, k := range keys {
		if !ph.keys[k] {
			ph.keys[k] = true
			merged = append(merged, k)
		}
	}
	ph.order = append(merged, ph.order...)
	t.persistLocked(peerID)
}

// outstanding returns the total backlog across peers — the
// hints_outstanding gauge.
func (t *hintTable) outstanding() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, ph := range t.byPeer {
		total += int64(len(ph.order))
	}
	return total
}

// outstandingFor returns one peer's backlog size.
func (t *hintTable) outstandingFor(peerID int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.byPeer[peerID]
	if ph == nil {
		return 0
	}
	return len(ph.order)
}

// peersWithHints lists peer IDs with a non-empty backlog, ascending.
func (t *hintTable) peersWithHints() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ids []int
	for id, ph := range t.byPeer {
		if len(ph.order) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// tryStartDrain marks the peer as draining, refusing when a drain is
// already running so reinstatement storms never double-deliver.
func (t *hintTable) tryStartDrain(peerID int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ph := t.byPeer[peerID]
	if ph == nil || len(ph.order) == 0 || ph.draining {
		return false
	}
	ph.draining = true
	return true
}

func (t *hintTable) endDrain(peerID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ph := t.byPeer[peerID]; ph != nil {
		ph.draining = false
	}
}

// hintPath is the per-peer hint journal location.
func (t *hintTable) hintPath(peerID int) string {
	return filepath.Join(t.dir, fmt.Sprintf("hints-to-node%d.jsonl", peerID))
}

// persistLocked rewrites one peer's hint journal to match the in-memory
// backlog (temp file + rename, like the job journal's rotation). Called
// with t.mu held. Persistence failures are swallowed: hints degrade to
// memory-only, and anti-entropy still repairs what a crash loses.
func (t *hintTable) persistLocked(peerID int) {
	if t.dir == "" {
		return
	}
	path := t.hintPath(peerID)
	ph := t.byPeer[peerID]
	if ph == nil || len(ph.order) == 0 {
		os.Remove(path)
		return
	}
	tmp, err := os.CreateTemp(t.dir, ".hints-*")
	if err != nil {
		return
	}
	bw := bufio.NewWriter(tmp)
	for _, k := range ph.order {
		line, err := json.Marshal(hintRecord{Key: k})
		if err != nil {
			continue
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if bw.Flush() != nil || tmp.Sync() != nil || tmp.Close() != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), path) != nil {
		os.Remove(tmp.Name())
	}
}

// load reads every persisted hint journal back into memory; a torn tail
// is tolerated line by line, like the job journal's replay.
func (t *hintTable) load() error {
	if t.dir == "" {
		return nil
	}
	entries, err := os.ReadDir(t.dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entries {
		var peerID int
		if _, err := fmt.Sscanf(e.Name(), "hints-to-node%d.jsonl", &peerID); err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(t.dir, e.Name()))
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		ph := t.byPeer[peerID]
		if ph == nil {
			ph = &peerHints{keys: map[string]bool{}}
			t.byPeer[peerID] = ph
		}
		for sc.Scan() {
			var rec hintRecord
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Key == "" {
				break // torn tail: stop at the first bad line
			}
			if !ph.keys[rec.Key] {
				ph.keys[rec.Key] = true
				ph.order = append(ph.order, rec.Key)
			}
		}
		f.Close()
	}
	return nil
}

// addHint records a handoff hint for a push that could not reach its
// replica target.
func (n *Node) addHint(p Peer, key, cause string) {
	if !n.hints.add(p.ID, key) {
		return // already hinted for this peer; dedup by digest
	}
	n.handoffHinted.Add(1)
	n.srv.RecordEvent(obs.EvClusterHint,
		fmt.Sprintf("digest %.12s hinted for node %d: %s", key, p.ID, cause))
	n.log.Info("handoff hint recorded", "digest", key[:12], "peer", p.ID, "cause", cause)
}

// spawnDrain starts a background drain of a reinstated peer's hint
// backlog, unless one is already running or there is nothing to drain.
func (n *Node) spawnDrain(p Peer) {
	if !n.hints.tryStartDrain(p.ID) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.hints.endDrain(p.ID)
		n.drainHints(p)
	}()
}

// drainHints delivers a reinstated peer's hint backlog, retrying with
// doubling backoff (capped at 30s) until the backlog is empty, the peer
// goes back down (the next reinstatement re-triggers), or the node
// closes.
func (n *Node) drainHints(p Peer) {
	backoff := 250 * time.Millisecond
	for {
		remaining, err := n.drainPeerOnce(p)
		if remaining == 0 {
			return
		}
		if err != nil && n.peerIsDown(p) {
			return // quarantined again; reinstatement will retry
		}
		select {
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
	}
}

// drainPeerOnce attempts one delivery pass of a peer's backlog. Hints
// whose entries the local LRU has since evicted are dropped (anti-
// entropy repairs any real divergence later). It returns the backlog
// size after the pass and the first delivery error. The pass is one
// trace: its delivery span lands in the span store and the drain event
// carries the trace id.
func (n *Node) drainPeerOnce(p Peer) (remaining int, err error) {
	keys := n.hints.take(p.ID)
	if len(keys) == 0 {
		return 0, nil
	}
	trace := obs.NewTraceID()
	t0 := time.Now()
	drained := 0
	for i, key := range keys {
		res, ok := n.srv.PeekCached(key)
		if !ok {
			continue // evicted locally; nothing left to hand off
		}
		if pushErr := n.pushEntry(p, key, res, rpcHandoffPut); pushErr != nil {
			n.strikePeer(p, "hint drain: "+pushErr.Error())
			n.hints.requeue(p.ID, keys[i:])
			n.recordRoundSpan(trace, "handoff-drain", t0, time.Now(),
				spanAttrs(p, "delivered", drained, "error", pushErr.Error()))
			return n.hints.outstandingFor(p.ID), pushErr
		}
		n.clearStrikes(p)
		drained++
		n.handoffDrain.Add(1)
	}
	if drained > 0 {
		n.recordRoundSpan(trace, "handoff-drain", t0, time.Now(),
			spanAttrs(p, "delivered", drained))
		n.srv.RecordTracedEvent(obs.EvClusterHintDrained, trace,
			fmt.Sprintf("%d hinted entries delivered to node %d", drained, p.ID))
		n.log.Info("handoff hints drained", "peer", p.ID, "delivered", drained, "trace", trace)
	}
	return n.hints.outstandingFor(p.ID), nil
}

// peerIsDown reports the health verdict for p (false for unknown peers).
func (n *Node) peerIsDown(p Peer) bool {
	h := n.peerHealth(p.ID)
	return h != nil && h.down()
}

// HintsOutstanding returns the total undelivered hint backlog — the
// gauge the chaos harness asserts drains to zero after reinstatement.
func (n *Node) HintsOutstanding() int64 { return n.hints.outstanding() }

// DrainHintsNow synchronously attempts one delivery pass for every peer
// with a backlog, regardless of health state — an operator/test lever;
// the prober path drains automatically on reinstatement.
func (n *Node) DrainHintsNow() {
	for _, id := range n.hints.peersWithHints() {
		for _, p := range n.otherPeers() {
			if p.ID == id {
				if n.hints.tryStartDrain(id) {
					n.drainPeerOnce(p)
					n.hints.endDrain(id)
				}
				break
			}
		}
	}
}
