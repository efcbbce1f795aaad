package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// Replication: after a job completes fresh on this node, its result is
// pushed asynchronously to the next Replicas−1 distinct ring successors
// of its digest (PUT /internal/cache/{digest}), so a dead owner's cached
// work is served bit-identically from a replica instead of recomputed.
// Pushes to quarantined or unreachable peers are skipped; the
// anti-entropy exchange (antientropy.go), run when the peer reinstates
// and on the periodic sweep, delivers what they missed.

// replTask is one completed result awaiting replication.
type replTask struct {
	key string
	res *server.JobResult
}

// enqueueReplication is the server's fresh-result hook: it hands the
// result to the replicator goroutine. It runs on the job's watcher
// goroutine, so it blocks only if the replication queue is saturated,
// and never past Close.
func (n *Node) enqueueReplication(key string, res *server.JobResult) {
	select {
	case n.repl <- replTask{key: key, res: res}:
	case <-n.stop:
	}
}

// replicateLoop drains the replication queue until Close.
func (n *Node) replicateLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case t := <-n.repl:
			n.replicateKey(t.key, t.res)
		}
	}
}

// replicateKey pushes one result to every replica target of its digest.
// A quarantined target is skipped and an unreachable one struck; either
// catches up by summary exchange once it is back. The whole round is one
// trace: each push records a span into the node's span store and the
// flight-recorder event carries the trace id, so a replication round
// can be replayed via GET /internal/trace/{trace_id}.
func (n *Node) replicateKey(key string, res *server.JobResult) {
	trace := obs.NewTraceID()
	for _, p := range n.replicaTargets(key) {
		if n.peerIsDown(p) {
			continue
		}
		t0 := time.Now()
		err := n.pushEntry(p, key, res, rpcReplicaPut)
		n.recordRoundSpan(trace, "replicate-push", t0, time.Now(),
			spanAttrs(p, "digest", fmt.Sprintf("%.12s", key), "ok", err == nil))
		if err != nil {
			n.strikePeer(p, "replicate: "+err.Error())
			continue
		}
		n.clearStrikes(p)
		n.reg.Add("cluster.replica_pushes", 1)
		n.srv.RecordTracedEvent(obs.EvClusterReplicate, trace,
			fmt.Sprintf("digest %.12s replicated to node %d", key, p.ID))
	}
}

// replicaSet returns the peers that should hold key on ring: the first
// Replicas members of its successor walk, this node included when it is
// one of them.
func (n *Node) replicaSet(ring *Ring, key string) []Peer {
	succs := ring.Successors(key)
	return succs[:min(n.cfg.Replicas, len(succs))]
}

// replicaTargets returns the members of key's replica set other than
// this node: the peers a fresh result is pushed to.
func (n *Node) replicaTargets(key string) []Peer {
	var out []Peer
	for _, p := range n.replicaSet(n.currentRing(), key) {
		if p.ID != n.self.ID {
			out = append(out, p)
		}
	}
	return out
}

// replicaSetHas reports whether key's replica set on ring contains the
// given node ID.
func (n *Node) replicaSetHas(ring *Ring, key string, id int) bool {
	return slices.ContainsFunc(n.replicaSet(ring, key), func(p Peer) bool { return p.ID == id })
}

// pushEntry PUTs one cached result to a peer — the shared transport of
// replication, decommission pushes, and anti-entropy repair. Both legs
// are charged to the modeled network; the caller says which purpose (rpc
// label) the wire call serves, which is what keeps the background
// subsystems separable in the gpmetisd_cluster_rpc_* series.
func (n *Node) pushEntry(p Peer, key string, res *server.JobResult, rpc string) error {
	payload, err := json.Marshal(res)
	if err != nil {
		return err
	}
	n.net.Charge(len(payload))
	req, err := http.NewRequest(http.MethodPut,
		"http://"+p.Addr+"/internal/cache/"+key, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.doRPC(n.client, p, rpc, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	n.net.Charge(len(b))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica put status %d", resp.StatusCode)
	}
	return nil
}

// handleReplicaPut stores a peer's pushed result in the local cache
// (PUT /internal/cache/{digest}). The store bypasses hit/miss
// accounting and dedups by digest: a re-push of an entry already held
// answers {"stored": false} and costs nothing.
func (n *Node) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("read body: %v", err), Code: server.CodeBadRequest})
		return
	}
	var res server.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("decode result: %v", err), Code: server.CodeBadRequest})
		return
	}
	stored := n.srv.StoreReplicated(digest, &res)
	if stored {
		n.reg.Add("cluster.replica_stores", 1)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stored": stored})
}

// consultReplicas peeks the replica-set members a failover walk has not
// tried yet, before this node recomputes a digest it does not hold. It
// only applies off the owner seat (i ≥ 1: a fresh submission owned here
// must not pay peek latency) and only when untried set members remain:
// members earlier in the walk were already peeked or down, members past
// the set never hold a replica. A hit read-repairs the local cache and
// returns the replica's JSON bytes for the client's answer.
func (n *Node) consultReplicas(ring *Ring, key string, i int) (json.RawMessage, Peer, bool) {
	if i < 1 {
		return nil, Peer{}, false
	}
	set := n.replicaSet(ring, key)
	if i+1 >= len(set) {
		return nil, Peer{}, false
	}
	if _, ok := n.srv.PeekCached(key); ok {
		return nil, Peer{}, false // the local cache answers at zero cost
	}
	trace := obs.NewTraceID()
	for _, q := range set[i+1:] {
		if n.peerIsDown(q) {
			continue
		}
		raw, found, err := n.peekRemote(q, key)
		var res server.JobResult
		if err == nil && found {
			err = json.Unmarshal(raw, &res)
		}
		if err != nil {
			n.strikePeer(q, "replica peek: "+err.Error())
			continue
		}
		if !found {
			n.reg.Add("cluster.peek_misses", 1)
			continue
		}
		n.reg.Add("cluster.replica_hits", 1)
		n.srv.RecordTracedEvent(obs.EvClusterReplicaHit, trace,
			fmt.Sprintf("replica %d answered digest %.12s for its dead owner", q.ID, key))
		if n.srv.StoreReplicated(key, &res) {
			n.reg.Add("cluster.repair_pulled", 1)
		}
		return raw, q, true
	}
	return nil, Peer{}, false
}
