package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"gpmetis/internal/server"
)

// runTop is the terminal ops view: it polls the daemon's
// /admin/status.json at the given interval and redraws a compact
// dashboard, the curses-flavored sibling of the HTML page at
// /admin/status. iterations bounds the number of frames (0 = until
// interrupted); one frame with no screen clearing suits scripts.
func runTop(base string, interval time.Duration, iterations int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Print("\x1b[2J\x1b[H") // clear + home between frames
		}
		st, err := fetchStatus(client, base)
		if err != nil {
			return err
		}
		renderTop(os.Stdout, base, st)
	}
	return nil
}

// runFleetTop is the fleet flavor of -top: it polls the federated
// /admin/cluster/status.json of the first ring member that answers
// (failing over down the list each frame, like submissions do) and
// renders one row per node — the whole ring on one terminal.
func runFleetTop(bases []string, interval time.Duration, iterations int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
			fmt.Print("\x1b[2J\x1b[H") // clear + home between frames
		}
		fs, from, err := fetchFleet(client, bases)
		if err != nil {
			return err
		}
		renderFleet(os.Stdout, from, fs)
	}
	return nil
}

// fetchFleet asks each base in turn for the fleet view, returning the
// first answer and which base gave it.
func fetchFleet(client *http.Client, bases []string) (*server.FleetStatus, string, error) {
	var lastErr error
	for _, base := range bases {
		resp, err := client.Get(base + "/admin/cluster/status.json")
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("fleet status from %s: HTTP %d", base, resp.StatusCode)
			continue
		}
		var fs server.FleetStatus
		err = json.NewDecoder(resp.Body).Decode(&fs)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("fleet status from %s: %v", base, err)
			continue
		}
		return &fs, base, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no ring members to poll")
	}
	return nil, "", lastErr
}

func renderFleet(w *os.File, from string, fs *server.FleetStatus) {
	fmt.Fprintf(w, "gpmetisd fleet via %s — seen from node %d", from, fs.Node)
	if fs.Replicas > 0 {
		fmt.Fprintf(w, ", RF=%d", fs.Replicas)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "\nNODE  STATE  ADDR                  RTT      SHARE   QUEUE      DONE  FAIL  SLO     BURNf  BURNs  QUAR  CACHE")
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
		quar := 0
		for _, sl := range st.Slots {
			if sl.State == server.DeviceQuarantined {
				quar++
			}
		}
		fmt.Fprintf(w, "%4d  %-5s  %-20s  %-7s  %5.1f%%  %4d/%-4d  %5d  %4d  %-6s  %5.2f  %5.2f  %4d  %5d\n",
			node.ID, state, node.Addr, rtt, node.OwnershipPct,
			st.QueueDepth, st.QueueCap, st.JobsCompleted, st.JobsFailed,
			st.SLO.Status, st.SLO.Fast.LatencyBurn, st.SLO.Slow.LatencyBurn,
			quar, st.CacheEntries)
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

func fetchStatus(client *http.Client, base string) (*server.StatusResponse, error) {
	resp, err := client.Get(base + "/admin/status.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon status: HTTP %d", resp.StatusCode)
	}
	var st server.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("daemon status: %v", err)
	}
	return &st, nil
}

func renderTop(w *os.File, base string, st *server.StatusResponse) {
	fmt.Fprintf(w, "gpmetisd %s @ %s — %s, up %s, modeled %.3fs\n",
		st.Version, base, st.Status, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second),
		st.ModeledSeconds)
	fmt.Fprintf(w, "queue %d/%d  submitted %d  completed %d  failed %d  canceled %d  rejected %d  coalesced %d  degraded %d\n",
		st.QueueDepth, st.QueueCap, st.JobsSubmitted, st.JobsCompleted, st.JobsFailed,
		st.JobsCanceled, st.JobsRejected, st.JobsCoalesced, st.JobsDegraded)
	fmt.Fprintf(w, "cache  hits %d  misses %d  hit-rate %.1f%%  entries %d\n",
		st.CacheHits, st.CacheMisses, st.CacheHitRate*100, st.CacheEntries)

	fmt.Fprintln(w, "\nSLOT  STATE        RUNNING    JOBS   BUSY")
	for _, sl := range st.Slots {
		running := sl.RunningJob
		if running == "" {
			running = "-"
		}
		fmt.Fprintf(w, "%4d  %-11s  %-9s %5d  %6.2fs\n",
			sl.Slot, sl.State, running, sl.Jobs, sl.BusySeconds)
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

	slo := st.SLO
	fmt.Fprintf(w, "\nSLO %s — latency<=%.2fs@%.0f%% burn fast %.2f slow %.2f; availability@%.0f%% burn fast %.2f slow %.2f (window jobs %d/%d)\n",
		slo.Status, slo.LatencyThresholdSeconds, slo.LatencyTarget*100,
		slo.Fast.LatencyBurn, slo.Slow.LatencyBurn,
		slo.AvailabilityTarget*100, slo.Fast.AvailabilityBurn, slo.Slow.AvailabilityBurn,
		slo.Fast.Jobs, slo.Slow.Jobs)
	if st.LastEvent != "" {
		fmt.Fprintf(w, "events %d, last %s\n", st.EventsTotal, st.LastEvent)
	}
}
