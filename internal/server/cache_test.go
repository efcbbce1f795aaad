package server

import (
	"strings"
	"testing"

	"gpmetis"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/obs"
)

func graphText(t *testing.T, g *gpmetis.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := gio.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestGraphDigestSensitivity(t *testing.T) {
	g1, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gpmetis.Grid2D(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) != GraphDigest(g2) {
		t.Error("identical graphs must share a digest")
	}
	g2.VWgt[0]++
	if GraphDigest(g1) == GraphDigest(g2) {
		t.Error("a vertex-weight change must change the digest")
	}
	g3, err := gpmetis.Grid2D(10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) == GraphDigest(g3) {
		t.Error("different shapes must differ in digest")
	}
}

// TestCacheKeyCanonicalization is the cache-key invariant of DESIGN.md §9:
// spelling a default explicitly (seed 1, ub 1.03, algo "gp", merge
// "hash") yields the same content address as omitting it, while any
// semantic difference yields a new one.
func TestCacheKeyCanonicalization(t *testing.T) {
	g, err := gpmetis.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	text := graphText(t, g)
	key := func(req SubmitRequest) string {
		req.Graph = text
		j, err := resolveRequest(&req)
		if err != nil {
			t.Fatalf("resolve %+v: %v", req, err)
		}
		return j.key
	}

	base := key(SubmitRequest{K: 4})
	explicit := key(SubmitRequest{K: 4, Algo: "gp", Seed: 1, UB: 1.03, Merge: "hash"})
	if base != explicit {
		t.Error("explicit defaults must canonicalize to the zero-value key")
	}
	for name, req := range map[string]SubmitRequest{
		"k":      {K: 5},
		"seed":   {K: 4, Seed: 2},
		"ub":     {K: 4, UB: 1.1},
		"algo":   {K: 4, Algo: "mt"},
		"merge":  {K: 4, Merge: "sort"},
		"faults": {K: 4, Faults: "pcie.transfer:p=0.5"},
		"verify": {K: 4, Verify: true},
	} {
		if key(req) == base {
			t.Errorf("%s change must change the cache key", name)
		}
	}

	j, err := resolveRequest(&SubmitRequest{Graph: text, K: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if j.key != "" {
		t.Error("NoCache jobs must not carry a content address")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := &obs.Registry{}
	c := NewCache(2, reg)
	put := func(k string) { c.Put(k, &CachedResult{Result: JobResult{EdgeCut: len(k)}}) }
	put("a")
	put("b")
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a must be cached")
	}
	put("c") // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was refreshed and must survive")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c was just inserted and must survive")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	hits, misses, evicted := reg.Get("cache.hits"), reg.Get("cache.misses"), reg.Get("cache.evicted")
	if hits != 3 || misses != 1 || evicted != 1 {
		t.Errorf("stats hits=%v misses=%v evicted=%v, want 3/1/1", hits, misses, evicted)
	}

	// Capacity < 1 disables caching entirely.
	off := NewCache(0, nil)
	off.Put("x", &CachedResult{})
	if _, ok := off.Get("x"); ok {
		t.Error("zero-capacity cache must not store")
	}
}
