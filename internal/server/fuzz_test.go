package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gpmetis/internal/graph/gio"
)

// FuzzSubmitRequest runs arbitrary POST /jobs bodies through the
// handler's path before Submit: JSON decode, then resolveRequest. It
// must never panic, and every rejection must be a *requestError, the
// class handleSubmit answers with 400. Accepted requests must describe
// a runnable job.
func FuzzSubmitRequest(f *testing.F) {
	// An accepted graph is built at its header's vertex count (a .gr
	// file with no arcs is valid at any count); lower the caps, as the
	// reader fuzz targets do, so a mutated header cannot allocate
	// gigabytes on the fuzzing host.
	oldV, oldE := gio.MaxVertices, gio.MaxEdges
	gio.MaxVertices, gio.MaxEdges = 1<<12, 1<<14
	f.Cleanup(func() { gio.MaxVertices, gio.MaxEdges = oldV, oldE })

	const tri = `3 3\n2 3\n1 3\n1 2\n`
	for _, seed := range []string{
		`{"graph":"` + tri + `","k":2}`,
		`{"graph":"` + tri + `","k":3,"algo":"mt","seed":7,"ub":1.1,"merge":"sort","threads":2}`,
		`{"graph":"p sp 2 1\na 1 2 4\na 2 1 4\n","format":"gr","k":2,"no_cache":true}`,
		`{"graph":"` + tri + `","k":2,"faults":"gpu.memcap:cap=300K","fault_seed":3,"degrade":true}`,
		`{"graph":"` + tri + `","k":2,"forwarded_by":"127.0.0.1:1","forward_trace_id":"ab","forward_span_id":2000001}`,
		`{"graph":"` + tri + `","k":2,"tenant":"t","deadline_ms":5,"profile":true,"verify":true}`,
		// Known-rejected shapes, to seed the error paths.
		`{}`,
		`{"graph":"` + tri + `","k":0}`,
		`{"graph":"` + tri + `","k":4}`,
		`{"graph":"` + tri + `","k":2,"algo":"kahip"}`,
		`{"graph":"` + tri + `","k":2,"format":"xml"}`,
		`{"graph":"` + tri + `","k":2,"ub":0.5}`,
		`{"graph":"` + tri + `","k":2,"merge":"zip"}`,
		`{"graph":"` + tri + `","k":2,"faults":"nosuch.site:p=2"}`,
		`{"graph":"2 1\n3\n1\n","k":1}`,
		`{"graph":"999999999 0\n","k":1}`,
		`{"graph":"` + tri + `","k":-9223372036854775808}`,
		`[1,2]`,
		`"graph"`,
		`{"k":1e400}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 64<<10 {
			return
		}
		var req SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return // handleSubmit answers "bad JSON" with 400
		}
		j, err := resolveRequest(&req)
		if err != nil {
			var re *requestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection %T (%v) is not a request error; handleSubmit would not answer it as a 400 bad_request", err, err)
			}
			return
		}
		if n := j.g.NumVertices(); j.k < 1 || j.k > n {
			t.Fatalf("accepted k=%d for a %d-vertex graph", j.k, n)
		}
		if verr := j.g.Validate(); verr != nil {
			t.Fatalf("accepted an invalid graph: %v", verr)
		}
		if (j.key == "") != req.NoCache {
			t.Fatalf("cache key %q does not match no_cache=%v", j.key, req.NoCache)
		}
	})
}

// FuzzReplayJournal replays valid journal records followed by a torn
// or garbage tail. Replay must not panic, every record it returns must
// carry a type and an id, and every record before the first bad line
// must come back, in order. One line is a legacy "estimator" record
// with its cell table, as older daemons journaled it: it replays as a
// bare type and id.
func FuzzReplayJournal(f *testing.F) {
	valid := []Record{
		{Type: RecSubmit, ID: "j000001", Seq: 1, Req: &SubmitRequest{Graph: "3 3\n2 3\n1 3\n1 2\n", K: 2}},
		{Type: RecRunning, ID: "j000001"},
		{Type: RecDone, ID: "j000001", Key: "k1", Result: &JobResult{Part: []int{0, 1, 1}, EdgeCut: 2, ModeledSeconds: 0.25}},
		{Type: "estimator", ID: "estimator"},
		{Type: RecReplica, ID: "replica-k2", Key: "k2", Result: &JobResult{Part: []int{1, 0}}},
		{Type: RecFailed, ID: "j000002", Error: "boom"},
	}
	lines := make([][]byte, len(valid))
	for i, rec := range valid {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines[i] = append(b, '\n')
	}
	raw := slices.Clone(lines)
	raw[3] = []byte(`{"type":"estimator","id":"estimator","est":[{"algo":0,"bucket":3,"wall":0.5,"modeled":0.1}]}` + "\n")
	for _, tail := range []string{
		"",
		`{"type":"done","id":"j0000`,
		"\x00\xff garbage\n" + string(lines[1]),
		`{"type":"","id":"j9"}` + "\n",
		`{"type":"running"}` + "\n",
		"\n\n",
		`{"type":"running","id":"j9"}`,
		"[1,2]\n",
	} {
		f.Add(uint8(len(valid)), []byte(tail))
	}
	f.Add(uint8(2), []byte(`{"type":"done","id":"j000001","result":{"part":[0,`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		prefix := int(n) % (len(valid) + 1)
		var buf bytes.Buffer
		for _, l := range raw[:prefix] {
			buf.Write(l)
		}
		buf.Write(tail)
		path := filepath.Join(dir, "journal.jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReplayJournal(path)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		for i, rec := range recs {
			if rec.Type == "" || rec.ID == "" {
				t.Fatalf("record %d has type %q id %q", i, rec.Type, rec.ID)
			}
		}
		if len(recs) < prefix {
			t.Fatalf("replayed %d records, want at least the %d valid ones", len(recs), prefix)
		}
		for i := 0; i < prefix; i++ {
			got, err := json.Marshal(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(got, '\n'), lines[i]) {
				t.Fatalf("record %d replayed as %s, want %s", i, got, lines[i])
			}
		}
	})
}
