package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"gpmetis/internal/server"
)

// runTop is the terminal ops view and the daemon's only renderer of it:
// it polls /admin/status.json at the given interval and redraws a
// compact dashboard. iterations bounds the number of frames (0 = until
// interrupted); one frame with no screen clearing suits scripts.
func runTop(base string, interval time.Duration, iterations int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	return pollFrames(interval, iterations, func() error {
		var st server.StatusResponse
		if err := getJSON(client, base+"/admin/status.json", &st); err != nil {
			return fmt.Errorf("daemon status: %v", err)
		}
		renderTop(os.Stdout, base, &st)
		return nil
	})
}

// runFleetTop is the fleet flavor of -top: it polls the federated
// /admin/cluster/status.json of the first ring member that answers
// (failing over down the list each frame, like submissions do) and
// renders one row per node — the whole ring on one terminal.
func runFleetTop(bases []string, interval time.Duration, iterations int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	return pollFrames(interval, iterations, func() error {
		fs, from, err := fetchFleet(client, bases)
		if err != nil {
			return err
		}
		renderFleet(os.Stdout, from, fs)
		return nil
	})
}

// pollFrames draws frames at interval, clearing the screen between them.
func pollFrames(interval time.Duration, iterations int, frame func() error) error {
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Print("\x1b[2J\x1b[H") // clear + home between frames
		}
		if err := frame(); err != nil {
			return err
		}
	}
	return nil
}

// getJSON GETs url and decodes its 200 answer into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchFleet asks each base in turn for the fleet view, returning the
// first answer and which base gave it.
func fetchFleet(client *http.Client, bases []string) (*server.FleetStatus, string, error) {
	lastErr := fmt.Errorf("no ring members to poll")
	for _, base := range bases {
		var fs server.FleetStatus
		if err := getJSON(client, base+"/admin/cluster/status.json", &fs); err != nil {
			lastErr = fmt.Errorf("fleet status from %s: %v", base, err)
			continue
		}
		return &fs, base, nil
	}
	return nil, "", lastErr
}

// renderFleet draws one row per ring member — state, ring share and the
// node's own queue, outcomes and cache size, or the
// reason it has no status — then each reachable node's cluster traffic.
func renderFleet(w io.Writer, from string, fs *server.FleetStatus) {
	fmt.Fprintf(w, "gpmetisd fleet via %s — seen from node %d", from, fs.Node)
	if fs.Replicas > 0 {
		fmt.Fprintf(w, ", RF=%d", fs.Replicas)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "\nNODE  STATE  ADDR                  RTT      SHARE   QUEUE      DONE  FAIL  CACHE")
	for _, node := range fs.Nodes {
		state := "down"
		switch {
		case node.Left:
			state = "left"
		case node.Self:
			state = "self"
		case node.Up:
			state = "up"
		}
		rtt := "-"
		if !node.Self && node.Up {
			rtt = fmt.Sprintf("%.1fms", node.RTTSeconds*1000)
		}
		if node.Status == nil {
			reason := node.Error
			if node.Left {
				reason = "decommissioned"
			}
			fmt.Fprintf(w, "%4d  %-5s  %-20s  %-7s  %5.1f%%  %s\n",
				node.ID, state, node.Addr, rtt, node.OwnershipPct, reason)
			continue
		}
		st := node.Status
		fmt.Fprintf(w, "%4d  %-5s  %-20s  %-7s  %5.1f%%  %4d/%-4d  %5d  %4d  %5d\n",
			node.ID, state, node.Addr, rtt, node.OwnershipPct,
			st.QueueDepth, st.QueueCap, st.JobsCompleted, st.JobsFailed,
			st.CacheEntries)
	}

	fmt.Fprintln(w, "\nNODE  FWDS  PEEK-HIT  PEEK-MISS  FAILOVER  REPL-PUSH  REPAIR+  REPAIR-  NET-MODELED")
	for _, node := range fs.Nodes {
		if node.Status == nil || node.Status.Cluster == nil {
			continue
		}
		c := node.Status.Cluster
		fmt.Fprintf(w, "%4d  %4d  %8d  %9d  %8d  %9d  %7d  %7d  %10.3fs\n",
			c.NodeID, c.Forwards, c.PeekHits, c.PeekMisses, c.Failovers,
			c.ReplicaPushes, c.RepairPushed, c.RepairPulled,
			c.NetModeledSeconds)
	}
}

// renderTop draws one daemon's status: outcomes, cache, tenants, device
// slots, latency quantiles and, on a ring member, its ring view.
func renderTop(w io.Writer, base string, st *server.StatusResponse) {
	fmt.Fprintf(w, "gpmetisd %s @ %s — %s, up %s, modeled %.3fs\n",
		st.Version, base, st.Status, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second),
		st.ModeledSeconds)
	fmt.Fprintf(w, "queue %d/%d  submitted %d  completed %d  failed %d  canceled %d  rejected %d  shed %d  coalesced %d  degraded %d\n",
		st.QueueDepth, st.QueueCap, st.JobsSubmitted, st.JobsCompleted, st.JobsFailed,
		st.JobsCanceled, st.JobsRejected, st.JobsShed, st.JobsCoalesced, st.JobsDegraded)
	fmt.Fprintf(w, "cache  hits %d  misses %d  hit-rate %.1f%%  entries %d\n",
		st.CacheHits, st.CacheMisses, st.CacheHitRate*100, st.CacheEntries)

	if len(st.Tenants) > 0 {
		fmt.Fprintln(w, "\nTENANT            WEIGHT  QUEUED  SUBMITTED  COMPLETED  SHED  REJECTED   SERVED")
		for _, t := range st.Tenants {
			queued := fmt.Sprint(t.Queued)
			if t.MaxQueued > 0 {
				queued += fmt.Sprintf("/%d", t.MaxQueued)
			}
			fmt.Fprintf(w, "%-16s  %6.2g  %6s  %9d  %9d  %4d  %8d  %7.3fs\n",
				t.Name, t.Weight, queued, t.Submitted, t.Completed, t.Shed, t.Rejected, t.ServedModeledSeconds)
		}
	}

	fmt.Fprintln(w, "\nSLOT  RUNNING    JOBS   BUSY")
	for _, sl := range st.Slots {
		running := sl.RunningJob
		if running == "" {
			running = "-"
		}
		fmt.Fprintf(w, "%4d  %-9s %5d  %6.2fs\n",
			sl.Slot, running, sl.Jobs, sl.BusySeconds)
	}

	fmt.Fprintln(w, "\nLATENCY        COUNT      P50       P90       P99")
	for _, row := range []struct {
		name string
		l    server.LatencySummary
	}{
		{"queue wait", st.QueueWait},
		{"run", st.RunSeconds},
		{"total", st.TotalSeconds},
	} {
		fmt.Fprintf(w, "%-12s %7d  %7.3fs  %7.3fs  %7.3fs\n",
			row.name, row.l.Count, row.l.P50, row.l.P90, row.l.P99)
	}

	if c := st.Cluster; c != nil {
		fmt.Fprintf(w, "\nring node %d (%s), %d vnodes, RF=%d: forwards %d  peek %d/%d hit/miss  failovers %d  net %.3fs/%d msgs\n",
			c.NodeID, c.Addr, c.VNodes, c.Replicas, c.Forwards, c.PeekHits, c.PeekMisses,
			c.Failovers, c.NetModeledSeconds, c.NetMessages)
		fmt.Fprintln(w, "PEER  STATE  ADDR                  STRIKES  DOWNS")
		for _, p := range c.Peers {
			state := p.State
			if p.Left {
				state = "left"
			}
			self := ""
			if p.Self {
				self = "  (self)"
			}
			fmt.Fprintf(w, "%4d  %-5s  %-20s  %7d  %5d%s\n", p.ID, state, p.Addr, p.Strikes, p.Downs, self)
		}
	}
	if st.LastEvent != "" {
		fmt.Fprintf(w, "\nevents %d, last %s\n", st.EventsTotal, st.LastEvent)
	}
}
