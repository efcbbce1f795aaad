package cluster

import (
	"encoding/json"
	"fmt"
	"html/template"
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

// fleetTmpl renders the federated fleet view in the same idiom as the
// per-node ops page: static HTML, refreshes itself, no JavaScript.
var fleetTmpl = template.Must(template.New("fleet").Funcs(template.FuncMap{
	"secs": func(v float64) string { return fmt.Sprintf("%.3fs", v) },
	"ms":   func(v float64) string { return fmt.Sprintf("%.1fms", v*1000) },
	"pct1": func(v float64) string { return fmt.Sprintf("%.1f%%", v) },
	"burn": func(v float64) string { return fmt.Sprintf("%.2f", v) },
	"quarantined": func(slots []server.SlotStatus) int {
		q := 0
		for _, s := range slots {
			if s.State == server.DeviceQuarantined {
				q++
			}
		}
		return q
	},
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>gpmetisd fleet</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem; background: #111; color: #ddd; }
h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.4rem; }
table { border-collapse: collapse; margin-top: 0.4rem; }
td, th { border: 1px solid #333; padding: 0.25rem 0.6rem; text-align: right; }
th { background: #1c1c1c; } td:first-child, th:first-child { text-align: left; }
.ok { color: #6c6; } .warn { color: #fc6; } .breach, .down { color: #f66; }
.muted { color: #777; }
</style>
</head>
<body>
<h1>gpmetisd fleet &mdash; seen from node {{.Node}}{{if .Replicas}}, RF={{.Replicas}}{{end}}
<span class="muted">(refreshes every 2s)</span></h1>

<h2>Nodes</h2>
<table>
<tr><th>node</th><th>addr</th><th>state</th><th>rtt</th><th>ring share</th><th>queue</th><th>completed</th><th>failed</th><th>SLO</th><th>fast burn</th><th>slow burn</th><th>quarantined</th><th>cache</th></tr>
{{range .Nodes}}<tr>
<td>{{.ID}}{{if .Self}} (self){{end}}</td><td>{{.Addr}}</td>
{{if .Left}}<td class="muted">left</td>{{else if .Up}}<td class="ok">up</td>{{else}}<td class="down">down</td>{{end}}
<td>{{if .Self}}<span class="muted">&mdash;</span>{{else if .Up}}{{ms .RTTSeconds}}{{else}}<span class="muted">&mdash;</span>{{end}}</td>
<td>{{pct1 .OwnershipPct}}</td>
{{with .Status}}
<td>{{.QueueDepth}}/{{.QueueCap}}</td><td>{{.JobsCompleted}}</td><td>{{.JobsFailed}}</td>
<td class="{{.SLO.Status}}">{{.SLO.Status}}</td><td>{{burn .SLO.Fast.LatencyBurn}}</td><td>{{burn .SLO.Slow.LatencyBurn}}</td>
<td{{if quarantined .Slots}} class="warn"{{end}}>{{quarantined .Slots}}</td>
<td>{{.CacheEntries}}</td>
{{else}}
<td colspan="8" class="muted">{{if .Left}}decommissioned{{else}}{{.Error}}{{end}}</td>
{{end}}
</tr>
{{end}}</table>

<h2>Cluster traffic (as reported by each node)</h2>
<table>
<tr><th>node</th><th>forwards</th><th>peek hits</th><th>peek misses</th><th>failovers</th><th>replica pushes</th><th>repair pushed</th><th>repair pulled</th><th>net modeled</th></tr>
{{range .Nodes}}{{with .Status}}{{with .Cluster}}<tr>
<td>{{.NodeID}}</td><td>{{.Forwards}}</td><td>{{.PeekHits}}</td><td>{{.PeekMisses}}</td><td>{{.Failovers}}</td>
<td>{{.ReplicaPushes}}</td><td>{{.RepairPushed}}</td><td>{{.RepairPulled}}</td><td>{{secs .NetModeledSeconds}}</td>
</tr>
{{end}}{{end}}{{end}}</table>

<p class="muted">data: <a href="/admin/cluster/status.json">/admin/cluster/status.json</a> &middot;
per-node: <a href="/admin/status">/admin/status</a> &middot; <a href="/metrics">/metrics</a></p>
</body>
</html>
`))

func (n *Node) handleFleetHTML(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := fleetTmpl.Execute(w, n.fleetSnapshot()); err != nil {
		n.log.Error("fleet page render failed", "error", err.Error())
	}
}
