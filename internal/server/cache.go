package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"gpmetis"
	"gpmetis/internal/graph"
	"gpmetis/internal/obs"
)

// GraphDigest returns a hex SHA-256 over a graph's CSR arrays. Two graphs
// share a digest iff their vertex ordering, adjacency structure, and all
// weights are identical — exactly the inputs the partitioners see, so
// equal digests (plus equal canonical options) imply equal results.
func GraphDigest(g *graph.Graph) string {
	h := sha256.New()
	h.Write([]byte("gpmetis.graph.v1"))
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(g.XAdj)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(g.Adjncy)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(g.AdjWgt)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(g.VWgt)))
	h.Write(hdr[:])
	hashInts(h, g.XAdj)
	hashInts(h, g.Adjncy)
	hashInts(h, g.AdjWgt)
	hashInts(h, g.VWgt)
	return hex.EncodeToString(h.Sum(nil))
}

// hashInts streams vs into h as little-endian uint64s, batched to keep
// the per-call overhead off the digest's hot path.
func hashInts(h hash.Hash, vs []int) {
	var buf [8192]byte
	n := 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		n += 8
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	if n > 0 {
		h.Write(buf[:n])
	}
}

// canonicalOptions renders the fields of a resolved job spec that can
// change the partition or its modeled cost, with every default already
// applied (seed 0 and ub 0 never appear: resolve substitutes 1 and 1.03
// first). Two submissions that differ only in how they spelled a default
// therefore canonicalize — and cache — identically. The fault scenario
// string participates verbatim; reordering its clauses changes the key
// (a miss, never a wrong hit).
func canonicalOptions(algo gpmetis.Algorithm, k int, o gpmetis.Options, faults string, faultSeed int64) string {
	devices := o.Devices
	if devices < 1 {
		devices = 1
	}
	return fmt.Sprintf("algo=%s&k=%d&seed=%d&ub=%.6g&merge=%d&threads=%d&devices=%d&gputhresh=%d&faults=%s&faultseed=%d&degrade=%t&verify=%t&profile=%t",
		algo, k, o.Seed, o.UBFactor, int(o.Merge), o.Threads, devices, o.GPUThreshold, faults, faultSeed, o.Degrade, o.Verify, o.Profile)
}

// CacheKey is the content address of one (graph, k, options) request:
// SHA-256 over the graph digest and the canonical option string.
func CacheKey(graphDigest string, canonical string) string {
	h := sha256.New()
	h.Write([]byte("gpmetis.job.v1"))
	h.Write([]byte(graphDigest))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// CachedResult is one cache value: the completed result plus the tracer
// and (for profiled jobs) the kernel profile of the run that produced it,
// so /jobs/<id>/trace and /jobs/<id>/profile work for hits too. Values
// are immutable once stored; readers must not mutate Result.Part.
type CachedResult struct {
	Result  JobResult
	Tracer  *gpmetis.Tracer
	Profile *gpmetis.ProfileReport
}

// Cache is a content-addressed LRU result cache, safe for concurrent
// use. Capacity counts entries; Get refreshes recency. Hits, misses and
// evictions count into the cache.hits, cache.misses and cache.evicted
// series of its registry.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	reg   *obs.Registry
}

type cacheSlot struct {
	key string
	val *CachedResult
}

// NewCache returns an LRU cache holding up to capacity results, counting
// into reg (nil counts nothing); capacity < 1 disables caching (every Get
// misses, Put drops).
func NewCache(capacity int, reg *obs.Registry) *Cache {
	for _, name := range []string{"cache.hits", "cache.misses", "cache.evicted"} {
		reg.Add(name, 0)
	}
	return &Cache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}, reg: reg}
}

// Get returns the cached result for key, refreshing its recency.
func (c *Cache) Get(key string) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.reg.Add("cache.misses", 1)
		return nil, false
	}
	c.reg.Add("cache.hits", 1)
	c.ll.MoveToFront(e)
	return e.Value.(*cacheSlot).val, true
}

// Peek returns the cached result for key without touching the hit/miss
// accounting or the recency order. It backs the cluster tier's
// cross-node cache probe (GET /internal/cache/{digest}): a remote peek
// must not distort the local cache economics — the smoke tests assert
// exact hit counts — or promote an entry the local workload never used.
func (c *Cache) Peek(key string) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return e.Value.(*cacheSlot).val, true
}

// Put stores val under key, evicting the least recently used entry when
// over capacity.
func (c *Cache) Put(key string, val *CachedResult) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*cacheSlot).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheSlot{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheSlot).key)
		c.reg.Add("cache.evicted", 1)
	}
}

// Keys returns every cached key, most recently used first, without
// touching the hit/miss accounting or recency order. It backs the
// cluster tier's scan hooks: anti-entropy digest summaries and the
// decommission push both enumerate the local cache. The slice is a
// snapshot; entries may be evicted concurrently.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for e := c.ll.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*cacheSlot).key)
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
