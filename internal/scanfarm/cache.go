// The content-addressed clip cache: canonical geometry fingerprint →
// detector verdict, LRU-bounded.
//
// Real layouts are dominated by repeated standard-cell patterns (the
// observation behind pattern-matching detectors), so a full-chip scan
// re-scores the same canonical geometry over and over. Answering those
// windows from a hash lookup before any detector runs turns the scan
// from compute-bound to hash-bound on repetitive regions. Correctness
// rests on the scorer being a pure function of the canonical clip: the
// coordinator always scores the origin-translated clip, so a hit and a
// recompute produce the identical verdict by construction.
//
// The cache has two levels. ClipCache is the run's shared LRU, one
// mutex around a map and a list. In front of it each scan worker keeps
// a clipTable, a small direct-mapped table of the verdicts it last
// used, so a repeat the worker has seen before takes no lock and writes
// nothing another worker reads.

package scanfarm

import (
	"container/list"
	"sync"

	"github.com/golitho/hsd/internal/layout"
)

// ClipCache is a concurrency-safe LRU map from canonical clip
// fingerprints to detector scores.
type ClipCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[layout.Fingerprint]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   layout.Fingerprint
	score float64
}

// sizeHint caps how many entries a new cache's map is sized for: the
// bound is user input (hsdscan -cache-size), and a map sized for a
// billion entries would ask for tens of GB before the first window.
// Past the hint the map grows on demand.
const sizeHint = 4096

// NewClipCache returns a cache bounded to max entries (minimum 1).
func NewClipCache(max int) *ClipCache {
	if max < 1 {
		max = 1
	}
	return &ClipCache{
		max:   max,
		ll:    list.New(),
		items: make(map[layout.Fingerprint]*list.Element, min(max, sizeHint)),
	}
}

// Get returns the cached score for key, marking it most recently used.
func (c *ClipCache) Get(key layout.Fingerprint) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).score, true
}

// Put stores the score for key, evicting the least recently used entry
// when full. Concurrent workers may race to Put the same key; the
// scores are identical (pure function of the key), so last-write-wins is
// harmless.
func (c *ClipCache) Put(key layout.Fingerprint, score float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).score = score
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, score: score})
}

// tableSlots is the most verdicts a worker's clipTable holds: 256
// slots of 32 bytes, 8 KB a worker. A memory array's windows repeat a
// few dozen keys, and a slot a second key displaces is refilled from the
// shared cache on its next use.
const tableSlots = 256

// clipTable is one scan worker's private front to the run's ClipCache,
// for one Run. It is direct-mapped: a key's first byte picks its slot,
// and a slot answers only for the whole key it holds. It is filled on a
// shared hit and on put, and never refreshes the shared LRU, so the LRU
// may evict a key a table still answers; that is safe because a verdict
// is a pure function of its key. A table hit is counted in hits and
// folded into the shared counters once, when the worker stops, so
// ClipCache stays the one home of a run's counts. A nil table passes
// every call through to the shared cache.
type clipTable struct {
	mask  int   // the slots in use, a power of two no larger than the cache, minus one
	hits  int64 // table hits not yet folded
	slots [tableSlots]tableSlot
}

type tableSlot struct {
	key   layout.Fingerprint
	score float64
	full  bool
}

// newClipTable returns a table for a worker in front of c, or nil when
// the cache is off. It holds no more slots than c holds entries.
func newClipTable(c *ClipCache) *clipTable {
	if c == nil {
		return nil
	}
	n := tableSlots
	for n > c.max {
		n >>= 1
	}
	return &clipTable{mask: n - 1}
}

// get answers key from the table, else from c, copying a shared hit
// into the table. Only c counts a table miss.
func (t *clipTable) get(c *ClipCache, key layout.Fingerprint) (float64, bool) {
	if t != nil {
		if s := &t.slots[int(key[0])&t.mask]; s.full && s.key == key {
			t.hits++
			return s.score, true
		}
	}
	score, ok := c.Get(key)
	if ok {
		t.fill(key, score)
	}
	return score, ok
}

// put stores score for key in c and in the table.
func (t *clipTable) put(c *ClipCache, key layout.Fingerprint, score float64) {
	c.Put(key, score)
	t.fill(key, score)
}

func (t *clipTable) fill(key layout.Fingerprint, score float64) {
	if t != nil {
		t.slots[int(key[0])&t.mask] = tableSlot{key: key, score: score, full: true}
	}
}

// fold adds the table's hits to c's counters.
func (t *clipTable) fold(c *ClipCache) {
	if t == nil {
		return
	}
	c.mu.Lock()
	c.hits += t.hits
	c.mu.Unlock()
	t.hits = 0
}

// Len returns the current entry count.
func (c *ClipCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Size, Capacity          int
}

// HitRate returns hits / (hits + misses), 0 when the cache was never
// consulted.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the cache counters.
func (c *ClipCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.max,
	}
}
