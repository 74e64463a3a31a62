// The score cache: the cascade's first rung.
//
// Clients post the same geometry again and again (a verification flow
// re-checks the cells it checked last run), so every generation keeps
// the primary scores it computed, keyed by the clip's content
// fingerprint and its window origin. Server.cascade looks each item up
// before the degradation ladder runs; a hit is answered with the stored
// score, which is the bits the primary would compute again, and runs
// nothing else. Unlike the scan farm's cache, which reads the operator's
// own chip and trusts its fingerprint, a server reads network input: a
// hit also requires the stored clip to equal the request's exactly, so a
// fingerprint collision, crafted or not, costs a miss and never returns
// another clip's verdict. The origin in the key keeps translated copies
// apart, so no detector has to be translation-invariant.

package serve

import (
	"slices"
	"sync"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

// scoreCacheRects bounds one cache, counted in stored rectangles (a
// clip's shapes plus its window; 32 bytes each): about 32 MB however the
// rectangles are spread over entries.
const scoreCacheRects = 1 << 20

// cacheKey is a clip's translation-invariant content hash plus its
// window origin.
type cacheKey struct {
	fp     layout.Fingerprint
	origin geom.Point
}

func keyOf(c layout.Clip) cacheKey { return cacheKey{c.Fingerprint(), c.Window.Min} }

// cacheEntry is one stored score on the recency list.
type cacheEntry struct {
	key        cacheKey
	clip       layout.Clip
	score      float64
	prev, next *cacheEntry
}

// cost is what an entry for c counts against the budget.
func cost(c layout.Clip) int { return len(c.Shapes) + 1 }

// scoreCache is a bounded LRU map from clip to primary score. Safe for
// concurrent use.
type scoreCache struct {
	budget int

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     cacheEntry // sentinel: lru.next is the most recent entry, lru.prev the least
	held    int        // rectangles stored, at most budget
}

func newScoreCache(budget int) *scoreCache {
	c := &scoreCache{budget: budget, entries: make(map[cacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// get returns the score stored for clip under k, and whether the stored
// clip is clip itself: same window, core and shapes in the same order.
func (c *scoreCache) get(k cacheKey, clip layout.Clip) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil || e.clip.Window != clip.Window || e.clip.Core != clip.Core ||
		!slices.Equal(e.clip.Shapes, clip.Shapes) {
		return 0, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.score, true
}

// put stores score for clip under k, replacing whatever k held, and
// evicts least recently used entries until the budget holds again. It
// returns how many entries it evicted. A clip larger than the whole
// budget is not stored.
func (c *scoreCache) put(k cacheKey, clip layout.Clip, score float64) (evicted int) {
	n := cost(clip)
	if n > c.budget {
		return 0
	}
	// The request's clip is copied: the cache must not share a slice with
	// anything that outlives the request.
	clip.Shapes = slices.Clone(clip.Shapes)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[k]; old != nil {
		c.remove(old)
	}
	for c.held+n > c.budget {
		c.remove(c.lru.prev)
		evicted++
	}
	e := &cacheEntry{key: k, clip: clip, score: score}
	c.entries[k] = e
	c.held += n
	c.pushFront(e)
	return evicted
}

// remove drops e from the map and the list. Callers hold c.mu.
func (c *scoreCache) remove(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.held -= cost(e.clip)
}

func (c *scoreCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *scoreCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}
