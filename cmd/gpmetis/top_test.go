package main

import (
	"bytes"
	"strings"
	"testing"

	"gpmetis/internal/server"
)

// rowOf returns the first line of out whose fields start with the given
// prefix fields, or "" when none does.
func rowOf(out string, prefix ...string) string {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= len(prefix) && strings.Join(f[:len(prefix)], " ") == strings.Join(prefix, " ") {
			return line
		}
	}
	return ""
}

func TestRenderTop(t *testing.T) {
	st := &server.StatusResponse{
		Status: "draining", Version: "v1", QueueDepth: 3, QueueCap: 8,
		JobsSubmitted: 10, JobsCompleted: 6, JobsFailed: 1, JobsShed: 2,
		CacheHits: 4, CacheMisses: 6, CacheHitRate: 0.4, CacheEntries: 5,
		Slots: []server.SlotStatus{
			{Slot: 0, RunningJob: "j7", Jobs: 4, BusySeconds: 1.5},
			{Slot: 1, Jobs: 2},
		},
		Tenants: []server.TenantStatus{
			{Name: "paid", Weight: 3, Queued: 1, MaxQueued: 4, Submitted: 7, Completed: 5, ServedModeledSeconds: 0.25},
		},
		TotalSeconds: server.LatencySummary{Count: 7, P50: 0.1, P90: 0.2, P99: 0.3},
		Cluster: &server.ClusterStatus{
			NodeID: 1, Addr: "127.0.0.1:9001", VNodes: 64, Replicas: 2, Forwards: 3,
			Peers: []server.ClusterPeerStatus{
				{ID: 0, Addr: "127.0.0.1:9000", State: "down", Strikes: 2, Downs: 1},
				{ID: 1, Addr: "127.0.0.1:9001", State: "up", Self: true},
				{ID: 2, Addr: "127.0.0.1:9002", State: "up", Left: true},
			},
		},
	}
	var buf bytes.Buffer
	renderTop(&buf, "http://d", st)
	out := buf.String()

	for _, want := range []string{
		"gpmetisd v1 @ http://d — draining",
		"queue 3/8  submitted 10  completed 6  failed 1  canceled 0  rejected 0  shed 2",
		"hit-rate 40.0%  entries 5",
		"ring node 1 (127.0.0.1:9001), 64 vnodes, RF=2: forwards 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output lacks %q:\n%s", want, out)
		}
	}
	for _, row := range []struct {
		prefix []string
		want   string
	}{
		{[]string{"0", "j7", "4"}, "1.50s"},
		{[]string{"1", "-", "2"}, "0.00s"},
		{[]string{"paid", "3", "1/4", "7", "5"}, "0.250s"},
		{[]string{"total", "7"}, "0.300s"},
		{[]string{"0", "down", "127.0.0.1:9000", "2", "1"}, ""},
		{[]string{"1", "up", "127.0.0.1:9001"}, "(self)"},
		{[]string{"2", "left", "127.0.0.1:9002"}, ""},
	} {
		line := rowOf(out, row.prefix...)
		if line == "" || !strings.Contains(line, row.want) {
			t.Errorf("no row %v containing %q:\n%s", row.prefix, row.want, out)
		}
	}
}

func TestRenderFleet(t *testing.T) {
	self := &server.StatusResponse{
		QueueDepth: 2, QueueCap: 64, JobsCompleted: 9, JobsFailed: 1, CacheEntries: 4,
		Cluster: &server.ClusterStatus{
			NodeID: 0, Forwards: 5, PeekHits: 2, ReplicaPushes: 7, NetModeledSeconds: 0.0125,
		},
	}
	fs := &server.FleetStatus{Node: 0, Replicas: 2, Nodes: []server.FleetNode{
		{ID: 0, Addr: "127.0.0.1:9000", Self: true, Up: true, OwnershipPct: 40, Status: self},
		{ID: 1, Addr: "127.0.0.1:9001", OwnershipPct: 35, RTTSeconds: 0.002,
			Error: "dial tcp 127.0.0.1:9001: connection refused"},
		{ID: 2, Addr: "127.0.0.1:9002", Left: true, OwnershipPct: 25},
	}}
	var buf bytes.Buffer
	renderFleet(&buf, "http://127.0.0.1:9000", fs)
	out := buf.String()

	if !strings.Contains(out, "gpmetisd fleet via http://127.0.0.1:9000 — seen from node 0, RF=2") {
		t.Errorf("fleet header wrong:\n%s", out)
	}
	for _, row := range []struct {
		prefix []string
		want   string
	}{
		{[]string{"0", "self", "127.0.0.1:9000", "-", "40.0%", "2/64", "9", "1", "4"}, ""},
		{[]string{"1", "down", "127.0.0.1:9001", "-", "35.0%"}, "connection refused"},
		{[]string{"2", "left", "127.0.0.1:9002", "-", "25.0%"}, "decommissioned"},
		{[]string{"0", "5", "2", "0", "0", "7"}, "0.013s"},
	} {
		line := rowOf(out, row.prefix...)
		if line == "" || !strings.Contains(line, row.want) {
			t.Errorf("no row %v containing %q:\n%s", row.prefix, row.want, out)
		}
	}
	// Only the reachable node has a traffic row.
	if n := strings.Count(out, "\n   1  ") + strings.Count(out, "\n   2  "); n != 2 {
		t.Errorf("nodes 1 and 2 have %d rows in total, want one each:\n%s", n, out)
	}
}
