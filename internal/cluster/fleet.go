package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"gpmetis/internal/server"
)

// fleetSnapshot fans one status query out to every configured member —
// self answered in-process, everyone else over GET /admin/status.json —
// and merges the answers into one FleetStatus. Unreachable peers still
// get a row (Up=false plus the error), so the fleet view degrades to a
// partial picture instead of an error page when a node is down. The
// fan-out runs concurrently; one slow peer delays the page by its own
// RTT, not the sum.
func (n *Node) fleetSnapshot() server.FleetStatus {
	n.ringMu.RLock()
	peers := append([]Peer(nil), n.peersAll...)
	departed := make(map[int]bool, len(n.departed))
	for id := range n.departed {
		departed[id] = true
	}
	n.ringMu.RUnlock()
	shares := n.currentRing().OwnershipShares()

	fs := server.FleetStatus{Node: n.self.ID, Replicas: n.cfg.Replicas}
	rows := make([]server.FleetNode, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		row := server.FleetNode{
			ID: p.ID, Addr: p.Addr,
			Self:         p.ID == n.self.ID,
			Left:         departed[p.ID],
			OwnershipPct: shares[p.ID] * 100,
		}
		if row.Self {
			st := n.srv.StatusSnapshot()
			row.Up = true
			row.Status = &st
			rows[i] = row
			continue
		}
		if row.Left {
			rows[i] = row
			continue
		}
		wg.Add(1)
		go func(i int, p Peer, row server.FleetNode) {
			defer wg.Done()
			st, rtt, err := n.fetchPeerStatus(p)
			row.RTTSeconds = rtt
			if err != nil {
				row.Error = err.Error()
			} else {
				row.Up = true
				row.Status = st
			}
			rows[i] = row
		}(i, p, row)
	}
	wg.Wait()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	fs.Nodes = rows
	return fs
}

// fetchPeerStatus pulls one peer's /admin/status.json, charging the
// modeled network and timing the real round trip like every other RPC.
func (n *Node) fetchPeerStatus(p Peer) (*server.StatusResponse, float64, error) {
	n.net.Charge(0)
	req, err := http.NewRequest(http.MethodGet, "http://"+p.Addr+"/admin/status.json", nil)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := n.doRPC(n.client, p, rpcStatus, req)
	rtt := time.Since(t0).Seconds()
	if err != nil {
		return nil, rtt, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, rtt, err
	}
	n.net.Charge(len(b))
	if resp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("status fetch: HTTP %d", resp.StatusCode)
	}
	var st server.StatusResponse
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, rtt, err
	}
	return &st, rtt, nil
}

func (n *Node) handleFleetJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.fleetSnapshot())
}
