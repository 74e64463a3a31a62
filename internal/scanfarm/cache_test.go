package scanfarm

import (
	"runtime"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/geom"
	"github.com/golitho/hsd/internal/layout"
)

func fpOf(n int) layout.Fingerprint {
	return layout.Clip{
		Window: geom.R(0, 0, 1024, 1024),
		Core:   geom.R(256, 256, 768, 768),
		Shapes: []geom.Rect{geom.R(0, 0, n+1, n+1)},
	}.Fingerprint()
}

func TestClipCacheLRU(t *testing.T) {
	c := NewClipCache(2)
	a, b, d := fpOf(1), fpOf(2), fpOf(3)
	c.Put(a, 0.1)
	c.Put(b, 0.2)
	if _, ok := c.Get(a); !ok {
		t.Fatal("a missing")
	}
	// b is now least-recently used; inserting d evicts it.
	c.Put(d, 0.3)
	if c.Stats().Evictions != 1 {
		t.Fatal("no eviction at capacity")
	}
	if _, ok := c.Get(b); ok {
		t.Fatal("b survived eviction; LRU order broken")
	}
	if v, ok := c.Get(a); !ok || v != 0.1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if v, ok := c.Get(d); !ok || v != 0.3 {
		t.Fatalf("d = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits/misses %+v", st)
	}
}

func TestClipCacheUpdateDoesNotEvict(t *testing.T) {
	c := NewClipCache(2)
	a, b := fpOf(1), fpOf(2)
	c.Put(a, 0.1)
	c.Put(b, 0.2)
	c.Put(a, 0.1)
	if c.Stats().Evictions != 0 {
		t.Fatal("re-put of a present key evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d", c.Len())
	}
}

func TestClipCacheConcurrent(t *testing.T) {
	c := NewClipCache(32)
	keys := make([]layout.Fingerprint, 64)
	for i := range keys {
		keys[i] = fpOf(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := keys[(i*7+w)%len(keys)]
				if v, ok := c.Get(k); ok && v != float64((i*7+w)%len(keys)) {
					t.Errorf("cache returned %v for key %d", v, (i*7+w)%len(keys))
					return
				}
				c.Put(k, float64((i*7+w)%len(keys)))
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// TestNewClipCacheGrowsOnDemand: the bound is user input (hsdscan
// -cache-size), so a cache must not size its map for it up front, and
// must still grow past its size hint to the bound.
func TestNewClipCacheGrowsOnDemand(t *testing.T) {
	const max = 1 << 22
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c := NewClipCache(max)
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewClipCache(%d) allocated %d bytes, want < 1 MB", max, got)
	}
	const n = 2*sizeHint + 1
	for i := 0; i < n; i++ {
		c.Put(fpOf(i), float64(i))
	}
	if st := c.Stats(); st.Size != n || st.Evictions != 0 || st.Capacity != max {
		t.Fatalf("after %d puts: stats %+v", n, st)
	}
}

// TestClipTable: a worker's table answers only for the whole key a slot
// holds, holds no more slots than the shared cache holds entries, and
// counts its hits where the shared cache counts them once folded.
func TestClipTable(t *testing.T) {
	c := NewClipCache(4)
	tab := newClipTable(c)
	if tab.mask != 3 {
		t.Fatalf("table of %d slots before a cache of 4 entries", tab.mask+1)
	}
	// Two keys that share a slot: the same first byte, different rest.
	a, b := fpOf(1), fpOf(1)
	b[15]++
	tab.put(c, a, 0.25)
	if _, ok := tab.get(c, b); ok {
		t.Fatal("the table answered a key it does not hold from a slot holding another")
	}
	tab.put(c, b, 0.75)
	for _, k := range []struct {
		key  layout.Fingerprint
		want float64
	}{{a, 0.25}, {b, 0.75}, {b, 0.75}} {
		if v, ok := tab.get(c, k.key); !ok || v != k.want {
			t.Fatalf("get = %v, %v; want %v", v, ok, k.want)
		}
	}
	// b displaced a from the slot, so a came from the cache and went
	// back in; b's first get then was a cache hit, its second a table
	// hit, which the cache counts only once folded.
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("before the fold: %+v", st)
	}
	tab.fold(c)
	if st := c.Stats(); st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("after the fold: %+v", st)
	}
	if tab := newClipTable(NewClipCache(1 << 20)); tab.mask != tableSlots-1 {
		t.Fatalf("table of %d slots, want %d", tab.mask+1, tableSlots)
	}
}
