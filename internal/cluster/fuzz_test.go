package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzPeersFile runs arbitrary bytes through LoadPeersFile. It must
// never panic: every rejection is an error. An accepted list must have
// unique non-negative IDs and non-empty addresses, and must build a
// ring.
func FuzzPeersFile(f *testing.F) {
	for _, seed := range []string{
		`{"nodes":[{"id":0,"addr":"h0:8080"},{"id":1,"addr":"h1:8080"}]}`,
		`{"nodes":[{"id":7,"addr":"127.0.0.1:1"}],"extra":true}`,
		// Known-rejected shapes, to seed the error paths.
		`{"nodes":[]}`,
		`{"nodes"`,
		`{"nodes":[{"id":0,"addr":"a:1"},{"id":0,"addr":"b:1"}]}`,
		`{"nodes":[{"id":0,"addr":"a:1"},{"id":1,"addr":"a:1"}]}`,
		`{"nodes":[{"id":-1,"addr":"a:1"}]}`,
		`{"nodes":[{"id":0,"addr":"  "}]}`,
		`{"nodes":[{"id":1e400,"addr":"a:1"}]}`,
		`{"nodes":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		path := filepath.Join(t.TempDir(), "peers.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		peers, err := LoadPeersFile(path)
		if err != nil {
			return
		}
		if len(peers) == 0 {
			t.Fatal("accepted an empty member list")
		}
		ids := map[int]bool{}
		for _, p := range peers {
			if p.ID < 0 || ids[p.ID] {
				t.Fatalf("accepted node id %d (negative or duplicate)", p.ID)
			}
			ids[p.ID] = true
			if strings.TrimSpace(p.Addr) == "" {
				t.Fatalf("accepted node %d with an empty address", p.ID)
			}
		}
		if _, err := NewRing(peers, 0); err != nil {
			t.Fatalf("accepted list does not build a ring: %v", err)
		}
	})
}
