package lsm

import (
	"sync"
	"sync/atomic"
)

// CacheBytes is the page cache's capacity. It holds the whole of a data set
// of a few megabytes of component files — the benchmark's lookup and
// analytics data, 5 MB — and bounds what a larger one keeps resident.
const CacheBytes = 16 << 20

// Cache holds component pages read from disk, bounded in bytes. One cache
// serves every tree of a storage manager; a tree opened without one gets its
// own. It is safe for concurrent use: readers under different partition
// latches share it. A component finds its cached pages in its own slots, so
// a hit takes no lock: it marks the page referenced, and eviction (CLOCK)
// passes over a referenced page once, clearing the mark, before it drops
// it. A cached page is never rewritten, and values handed out view it, so an
// evicted page stays alive as long as a caller still views it.
type Cache struct {
	capacity int64
	hits     atomic.Uint64

	mu sync.Mutex
	// hand is the next page eviction looks at, in a ring of every cached
	// page; nil when the cache is empty.
	hand     *cachedPage
	resident int64
	misses   uint64
	read     uint64
	evicted  uint64
}

// CacheStats counts what a cache did since it was made.
type CacheStats struct {
	// Hits and Misses count page fetches found and not found in the cache;
	// a miss reads the page from its file, BytesRead in all.
	Hits, Misses, BytesRead uint64
	// Evictions counts pages dropped to make room or because their
	// component was gone.
	Evictions uint64
	// ResidentBytes is the bytes of the pages cached now.
	ResidentBytes int64
}

// cachedPage is one cached page, in the cache's ring and in the slot of its
// component that finds it.
type cachedPage struct {
	data       []byte
	slot       *atomic.Pointer[cachedPage]
	referenced atomic.Bool
	prev, next *cachedPage
}

// NewCache returns an empty cache that holds at most capacity bytes of
// pages. A page larger than the capacity is read but not kept.
func NewCache(capacity int64) *Cache {
	return &Cache{capacity: capacity}
}

// Stats reports the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses, BytesRead: c.read,
		Evictions: c.evicted, ResidentBytes: c.resident,
	}
}

// hit counts a fetch that found p and marks p referenced.
func (c *Cache) hit(p *cachedPage) []byte {
	c.hits.Add(1)
	if !p.referenced.Load() {
		p.referenced.Store(true)
	}
	return p.data
}

// put caches data, just read from its file, as the page slot finds, and
// returns the page to read: data, or the copy another reader cached first.
func (c *Cache) put(slot *atomic.Pointer[cachedPage], data []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	c.read += uint64(len(data))
	if p := slot.Load(); p != nil {
		return p.data
	}
	if int64(len(data)) > c.capacity {
		return data
	}
	p := &cachedPage{data: data, slot: slot}
	if c.hand == nil {
		p.prev, p.next, c.hand = p, p, p
	} else {
		// Behind the hand: the last page the next sweep looks at.
		p.prev, p.next = c.hand.prev, c.hand
		p.prev.next, c.hand.prev = p, p
	}
	slot.Store(p)
	c.resident += int64(len(data))
	for c.resident > c.capacity {
		if h := c.hand; h.referenced.Load() {
			h.referenced.Store(false)
			c.hand = h.next
		} else {
			c.remove(h)
		}
	}
	return data
}

// drop evicts the cached pages of a component no tree reads any more.
func (c *Cache) drop(slots []atomic.Pointer[cachedPage]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range slots {
		if p := slots[i].Load(); p != nil {
			c.remove(p)
		}
	}
}

// remove takes p out of the ring and its slot.
func (c *Cache) remove(p *cachedPage) {
	p.slot.Store(nil)
	if p.next == p {
		c.hand = nil
	} else {
		p.prev.next, p.next.prev = p.next, p.prev
		if c.hand == p {
			c.hand = p.next
		}
	}
	c.resident -= int64(len(p.data))
	c.evicted++
}
