package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// chromeDoc mirrors the Chrome trace_event JSON container.
type chromeDoc struct {
	TraceEvents []obs.ChromeEvent `json:"traceEvents"`
}

// fetchChromeTrace GETs a job's trace document through a ring node.
func fetchChromeTrace(t *testing.T, base, id string) chromeDoc {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace: HTTP %d", id, resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	return b.String()
}

func fetchEvents(t *testing.T, base string) []obs.Event {
	t.Helper()
	resp, err := http.Get(base + "/admin/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er server.EventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er.Events
}

// TestClusterStitchedTrace is the tentpole's acceptance scenario: a job
// submitted to a non-owner node yields, from the entry node, ONE Chrome
// trace document containing spans from both nodes under one trace id,
// with the owner's lifecycle spans parented under the entry node's
// cluster-forward span.
func TestClusterStitchedTrace(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 5}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entry = rn
			break
		}
	}

	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	if st.TraceID == "" {
		t.Fatal("forwarded job reports no trace id")
	}

	doc := fetchChromeTrace(t, entry.base(), st.ID)
	if len(doc.TraceEvents) == 0 {
		t.Fatal("stitched trace is empty")
	}

	pids := map[int]bool{}
	traceIDs := map[string]bool{}
	var forwardSpan float64
	forwardSeen := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if tid, ok := ev.Args["trace_id"].(string); ok {
			traceIDs[tid] = true
		}
		if ev.Pid == 1 && ev.Name == "cluster-forward" {
			forwardSeen = true
			forwardSpan, _ = ev.Args["span"].(float64)
			if ev.Dur <= 0 {
				t.Errorf("cluster-forward span has duration %v, want > 0 (the measured RTT)", ev.Dur)
			}
		}
	}
	if len(pids) < 2 {
		t.Fatalf("stitched trace spans %d pids, want >= 2 (one per node); pids=%v", len(pids), pids)
	}
	if !forwardSeen {
		t.Fatal("stitched trace has no cluster-forward span on the entry node's pid")
	}
	if len(traceIDs) != 1 {
		t.Fatalf("stitched trace carries %d distinct trace ids %v, want exactly 1", len(traceIDs), traceIDs)
	}
	if !traceIDs[st.TraceID] {
		t.Errorf("stitched trace id set %v does not match the job's trace id %q", traceIDs, st.TraceID)
	}

	// The owner's lifecycle spans (pid 2) parent under the forward span.
	remoteSpans, parented := 0, 0
	remoteNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 2 {
			continue
		}
		remoteSpans++
		remoteNames[ev.Name] = true
		if p, ok := ev.Args["parent"].(float64); ok && p == forwardSpan {
			parented++
		}
		if ev.Ts < 0 {
			t.Errorf("remote span %q starts at %vµs, before the entry clock's origin", ev.Name, ev.Ts)
		}
	}
	if remoteSpans == 0 {
		t.Fatal("stitched trace has no remote lifecycle spans on pid 2")
	}
	if parented == 0 {
		t.Error("no remote span is parented under the entry node's cluster-forward span")
	}
	if !remoteNames["run"] {
		t.Errorf("remote lifecycle spans %v lack a run span", remoteNames)
	}

	// The owner's own document must still be the single-node shape (it
	// did not forward anything), while the entry node's is stitched.
	if ownerTrace := fetchChromeTrace(t, "http://"+owner.Addr, st.ID); len(ownerTrace.TraceEvents) == 0 {
		t.Error("the owner serves an empty trace for its own job")
	}
}

// TestClusterTraceFetchEndpoint: GET /internal/trace/{trace_id} on the
// owning node returns that node's spans for a routed job's trace, and
// 404s for unknown ids.
func TestClusterTraceFetchEndpoint(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 2, Seed: 9}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entry = rn
			break
		}
	}
	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.TraceID == "" {
		t.Fatal("routed job has no trace id")
	}

	resp, err := http.Get("http://" + owner.Addr + "/internal/trace/" + st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var nt server.NodeTrace
	err = json.NewDecoder(resp.Body).Decode(&nt)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: HTTP %d err %v", resp.StatusCode, err)
	}
	if nt.TraceID != st.TraceID || nt.JobID != st.ID {
		t.Errorf("NodeTrace identifies (%q, %q), want (%q, %q)", nt.TraceID, nt.JobID, st.TraceID, st.ID)
	}
	if len(nt.Spans) == 0 {
		t.Error("owner returned no lifecycle spans for the routed job")
	}
	if nt.Anchor.IsZero() {
		t.Error("NodeTrace has no clock anchor; the stitcher cannot align clocks")
	}
	// The forward's trace context names the entry node's forward span
	// as the parent of the owner's cluster-forward record.
	forwardRecords := 0
	for _, sp := range nt.Spans {
		if sp.Name == "cluster-forward" {
			forwardRecords++
			if sp.Parent == 0 {
				t.Error("owner's cluster-forward record has no Parent; the forward span id was lost")
			}
		}
	}
	if forwardRecords != 1 {
		t.Errorf("owner served %d cluster-forward records, want 1", forwardRecords)
	}

	resp2, err := http.Get("http://" + owner.Addr + "/internal/trace/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id answered HTTP %d, want 404", resp2.StatusCode)
	}
}

// TestClusterRPCMetricsEager: a fresh ring member's very first /metrics
// scrape already exposes every (peer, rpc-type) histogram and error
// counter, the in-flight gauge, and the node-labeled build_info — the
// invariant the make metrics-lint target pins.
func TestClusterRPCMetricsEager(t *testing.T) {
	nodes := startTestRing(t, 3)
	text := scrapeMetrics(t, nodes[0].base())

	if !strings.Contains(text, "gpmetisd_cluster_rpc_inflight 0") {
		t.Error("/metrics is missing the gpmetisd_cluster_rpc_inflight gauge")
	}
	for _, peer := range []string{"1", "2"} {
		for _, rpc := range rpcTypes {
			count := fmt.Sprintf(`gpmetisd_cluster_rpc_seconds_count{peer=%q,rpc=%q} `, peer, rpc)
			if !strings.Contains(text, count) {
				t.Errorf("fresh scrape is missing %s", count)
			}
			errs := fmt.Sprintf(`gpmetisd_cluster_rpc_errors_total{peer=%q,rpc=%q} `, peer, rpc)
			if !strings.Contains(text, errs) {
				t.Errorf("fresh scrape is missing %s", errs)
			}
		}
	}
	// Bucket lines are cumulative and end at +Inf.
	if !strings.Contains(text, `gpmetisd_cluster_rpc_seconds_bucket{peer="1",rpc="forward",le="+Inf"} 0`) {
		t.Error("fresh scrape is missing the forward histogram's +Inf bucket")
	}
	// build_info carries the node identity when clustering is on.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "gpmetisd_build_info{") {
			if !strings.Contains(line, `node="0"`) {
				t.Errorf("build_info lacks the node label: %s", line)
			}
		}
	}
}

// TestClusterMetricsLintFreshScrape is the ring member's half of the
// metrics-lint invariant (see the server's TestMetricsLintFreshScrape):
// every name in a fresh node's registry — the server's own series, the
// cluster counters, peer gauges and the per-peer RPC histograms — is on
// its very first /metrics scrape. A peers.json reload keeps it so: the
// next scrape has every RPC series of an added peer and none of a
// removed one.
func TestClusterMetricsLintFreshScrape(t *testing.T) {
	nodes := startTestRing(t, 3)
	reg := nodes[0].srv.Metrics()
	text := scrapeMetrics(t, nodes[0].base())

	check := func(series, suffix string) {
		name := "gpmetisd_" + strings.ReplaceAll(series, ".", "_") + suffix
		if !strings.Contains(text, name+" ") && !strings.Contains(text, name+"{") {
			t.Errorf("registered series %q missing from a fresh scrape (as %s)", series, name)
		}
	}
	names := reg.Names()
	if !slices.Contains(names, "cluster.forwards") || !slices.Contains(names, "cluster.node_up") {
		t.Fatalf("registry lacks the cluster series: %v", names)
	}
	for _, name := range names {
		check(name, "")
	}
	hists := reg.HistogramNames()
	if !slices.Contains(hists, "cluster.rpc_seconds") {
		t.Fatalf("registry lacks the RPC histograms: %v", hists)
	}
	for _, name := range hists {
		check(name, "_bucket")
		check(name, "_sum")
		check(name, "_count")
	}

	const added, removed = 9, 2
	peers := []Peer{{ID: added, Addr: "127.0.0.1:1"}}
	for _, rn := range nodes {
		if rn.peer.ID != removed {
			peers = append(peers, rn.peer)
		}
	}
	if err := nodes[0].node.UpdatePeers(peers); err != nil {
		t.Fatal(err)
	}
	text = scrapeMetrics(t, nodes[0].base())
	for _, rpc := range rpcTypes {
		for _, series := range []string{"gpmetisd_cluster_rpc_seconds_count", "gpmetisd_cluster_rpc_errors_total"} {
			if want := fmt.Sprintf(`%s{peer="%d",rpc="%s"} 0`, series, added, rpc); !strings.Contains(text, want) {
				t.Errorf("after a reload adding peer %d, /metrics lacks %q", added, want)
			}
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, fmt.Sprintf(`peer="%d"`, removed)) || strings.Contains(line, fmt.Sprintf(`node="%d"`, removed)) {
			t.Errorf("after a reload removing peer %d, /metrics still has %s", removed, line)
			break
		}
	}
}

// TestClusterRPCMetricsObserve: routing one job through the ring moves
// the forward and peek histograms, with real (non-zero) wall seconds.
func TestClusterRPCMetricsObserve(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 2, Seed: 21}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entry = rn
			break
		}
	}
	st, _ := clusterSubmit(t, entry.base(), req)
	clusterPoll(t, entry.base(), st.ID)

	text := scrapeMetrics(t, entry.base())
	fwdCount := fmt.Sprintf(`gpmetisd_cluster_rpc_seconds_count{peer="%d",rpc="forward"} 1`, owner.ID)
	if !strings.Contains(text, fwdCount) {
		t.Errorf("after one forward, /metrics lacks %q", fwdCount)
	}
	peekCount := fmt.Sprintf(`gpmetisd_cluster_rpc_seconds_count{peer="%d",rpc="peek"} 1`, owner.ID)
	if !strings.Contains(text, peekCount) {
		t.Errorf("after one peek, /metrics lacks %q", peekCount)
	}
	// The forward's wall time is real: its _sum must be positive.
	wantSum := fmt.Sprintf(`gpmetisd_cluster_rpc_seconds_sum{peer="%d",rpc="forward"} 0`, owner.ID)
	for _, line := range strings.Split(text, "\n") {
		if line == wantSum {
			t.Errorf("forward RPC recorded zero wall seconds: %s", line)
		}
	}
}

// TestClusterBackgroundTraces: replication, reinstatement-sync, and
// anti-entropy rounds each record trace-id-bearing flight-recorder
// events, their spans land in the span store (replayable via
// GET /internal/trace/{trace_id}), and their wire calls move the
// purpose-labeled rpc histograms.
func TestClusterBackgroundTraces(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 2, Seed: 33}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var ownerNode *ringNode
	for _, rn := range nodes {
		if rn.peer.ID == owner.ID {
			ownerNode = rn
			break
		}
	}

	// Fresh completion on the owner triggers async replication (RF=2).
	st, _ := clusterSubmit(t, ownerNode.base(), req)
	clusterPoll(t, ownerNode.base(), st.ID)
	deadline := time.Now().Add(10 * time.Second)
	for ownerNode.node.Status().ReplicaPushes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replication never pushed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The replicate event carries a trace id whose round is replayable
	// from the owner's span store.
	var replTrace string
	for _, ev := range fetchEvents(t, ownerNode.base()) {
		if ev.Type == obs.EvClusterReplicate {
			if ev.Trace == "" {
				t.Fatal("cluster_replicate event has no trace id")
			}
			if ev.Node == "" {
				t.Error("cluster_replicate event has no node id")
			}
			replTrace = ev.Trace
		}
	}
	if replTrace == "" {
		t.Fatal("no cluster_replicate event recorded")
	}
	resp, err := http.Get(ownerNode.base() + "/internal/trace/" + replTrace)
	if err != nil {
		t.Fatal(err)
	}
	var nt server.NodeTrace
	err = json.NewDecoder(resp.Body).Decode(&nt)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("replication round fetch: HTTP %d err %v", resp.StatusCode, err)
	}
	found := false
	for _, sp := range nt.Spans {
		if sp.Name == "replicate-push" {
			found = true
			if sp.End.Before(sp.Start) {
				t.Error("replicate-push span ends before it starts")
			}
		}
	}
	if !found {
		t.Errorf("replication round %q holds no replicate-push span (spans: %d)", replTrace, len(nt.Spans))
	}
	if !rpcCountNonZero(scrapeMetrics(t, ownerNode.base()), "replica_put") {
		t.Error("replication moved no replica_put histogram")
	}

	// Anti-entropy: plant divergence on the owner, then sweep.
	extra := &server.JobResult{Part: []int{0, 1}, EdgeCut: 1}
	planted := false
	for _, cand := range []string{"aaaa" + key[4:], "bbbb" + key[4:], "cccc" + key[4:]} {
		set := ownerNode.node.currentRing().Successors(cand)
		if len(set) >= 2 && (set[0].ID == owner.ID || set[1].ID == owner.ID) {
			ownerNode.srv.StoreReplicated(cand, extra)
			planted = true
			break
		}
	}
	if planted {
		ownerNode.node.AntiEntropyNow()
		if !rpcCountNonZero(scrapeMetrics(t, ownerNode.base()), "summary") {
			t.Error("anti-entropy sweep moved no summary histogram")
		}
		repaired := false
		for _, ev := range fetchEvents(t, ownerNode.base()) {
			if ev.Type == obs.EvClusterRepair && ev.Trace != "" {
				repaired = true
			}
		}
		if ownerNode.node.Status().RepairPushed > 0 && !repaired {
			t.Error("repair ran but recorded no trace-bearing cluster_repair event")
		}
	}

	// Reinstatement: plant an entry the owner shares with a peer, take the
	// peer down, and probe it back. The reinstatement sync pushes the
	// entry, and its repair event — one the sweep above did not record —
	// carries a trace holding the summary span.
	seen := map[string]bool{}
	for _, ev := range fetchEvents(t, ownerNode.base()) {
		if ev.Type == obs.EvClusterRepair {
			seen[ev.Trace] = true
		}
	}
	var peer Peer
	for i := 0; peer.Addr == ""; i++ {
		cand := fmt.Sprintf("%04x", i) + key[4:]
		set := ownerNode.node.currentRing().Successors(cand)
		switch owner.ID {
		case set[0].ID:
			peer = set[1]
		case set[1].ID:
			peer = set[0]
		default:
			continue
		}
		ownerNode.srv.StoreReplicated(cand, extra)
	}
	for !ownerNode.node.peerIsDown(peer) {
		ownerNode.node.strikePeer(peer, "test")
	}
	ownerNode.node.probePeer(peer)
	var syncTrace string
	waitFor(t, "the reinstatement sync's repair event", func() bool {
		for _, ev := range fetchEvents(t, ownerNode.base()) {
			if ev.Type == obs.EvClusterRepair && !seen[ev.Trace] {
				syncTrace = ev.Trace
			}
		}
		return syncTrace != ""
	})
	summarySpan := false
	if rec, ok := ownerNode.node.spans.Get(syncTrace); ok {
		for _, sp := range rec.Spans {
			summarySpan = summarySpan || sp.Name == "anti-entropy-summary"
		}
	}
	if !summarySpan {
		t.Errorf("reinstatement sync trace %q holds no anti-entropy-summary span", syncTrace)
	}
}

// rpcCountNonZero reports whether any rpc_seconds_count line for the
// given rpc label shows a non-zero count.
func rpcCountNonZero(text, rpc string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "gpmetisd_cluster_rpc_seconds_count{") &&
			strings.Contains(line, fmt.Sprintf("rpc=%q", rpc)) &&
			!strings.HasSuffix(line, " 0") {
			return true
		}
	}
	return false
}

// TestClusterFleetStatus: the federated view lists every ring member as
// up, with status snapshots and ownership shares summing to ~100%, all
// from one fan-out node.
func TestClusterFleetStatus(t *testing.T) {
	nodes := startTestRing(t, 3)

	resp, err := http.Get(nodes[1].base() + "/admin/cluster/status.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs server.FleetStatus
	err = json.NewDecoder(resp.Body).Decode(&fs)
	resp.Body.Close()
	if err != nil || len(fs.Nodes) != 3 {
		t.Fatalf("fleet status: err=%v nodes=%d, want 3", err, len(fs.Nodes))
	}
	if fs.Node != 1 {
		t.Errorf("fleet view reports fan-out node %d, want 1", fs.Node)
	}
	share := 0.0
	for _, node := range fs.Nodes {
		if !node.Up {
			t.Errorf("node %d reported down in a healthy ring: %s", node.ID, node.Error)
		}
		if node.Status == nil {
			t.Errorf("node %d row has no status snapshot", node.ID)
			continue
		}
		if node.Self != (node.ID == 1) {
			t.Errorf("node %d self flag wrong", node.ID)
		}
		if !node.Self && node.RTTSeconds <= 0 {
			t.Errorf("remote node %d has no RTT measurement", node.ID)
		}
		share += node.OwnershipPct
	}
	if share < 99.9 || share > 100.1 {
		t.Errorf("ownership shares sum to %.3f%%, want ~100%%", share)
	}
}

// TestClusterJobLogsCarryNode: jobs on a ring member stamp the node id
// into lifecycle events (satellite: node_id in every job-scoped record).
func TestClusterJobLogsCarryNode(t *testing.T) {
	nodes := startTestRing(t, 3)
	g, err := gpmetis.Grid2D(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 2, Seed: 2}
	st, _ := clusterSubmit(t, nodes[0].base(), req)
	clusterPoll(t, nodes[0].base(), st.ID)

	// Whichever node ran the job recorded admit/done events with its id.
	stamped := false
	for _, rn := range nodes {
		for _, ev := range fetchEvents(t, rn.base()) {
			if ev.Job == st.ID && ev.Type == obs.EvDone {
				if ev.Node == "" {
					t.Errorf("done event for %s has no node_id", st.ID)
				}
				stamped = true
			}
		}
	}
	if !stamped {
		t.Errorf("no done event found for job %s on any ring member", st.ID)
	}
}
