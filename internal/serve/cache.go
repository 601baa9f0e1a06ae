package serve

import (
	"math"
	"sync"
	"sync/atomic"
)

// queryKey identifies a range query for caching: the four rectangle bounds
// as a fixed-width binary key (4×float64, bit-for-bit — no per-lookup
// formatting or string allocation). Queries against a fixed release are
// deterministic post-processing of the published counts (Section 4.1 — no
// budget is spent at query time), so caching answers is semantically free:
// a hit returns exactly what recomputation would.
type queryKey [4]float64

// cacheShards is the fixed shard count of a Cache; a power of two so shard
// selection is a mask. 16 shards keep lock contention negligible for the
// worker counts this library targets while staying cheap for tiny caches.
const cacheShards = 16

// Cache is a bounded, sharded LRU map from query rectangles to answers.
// Each shard holds its own lock, index map and recency list, so concurrent
// readers on different shards never contend. A nil *Cache is valid and
// always misses, which is how caching is disabled. Hit/miss accounting
// lives in the per-release stats, not here, so the hot path pays no extra
// atomics.
type Cache struct {
	shards [cacheShards]cacheShard
	// evictions counts answers displaced by capacity pressure — the signal
	// that the cache is undersized for the live query mix. Surfaced in the
	// /stats endpoint.
	evictions atomic.Uint64
}

// cacheShard is an exact LRU with no pointers anywhere: entries live in a
// slab, the recency list links them by slab index, and the map maps keys to
// slab indices. The garbage collector never scans any of it, and a miss
// allocates nothing once the slab is full (an eviction reuses the tail
// slot). Both the slab (by doubling, up to the capacity) and the map
// (unsized at creation) grow as the shard fills, so a release whose cache
// never fills never pays for its capacity: every loaded version of a
// release family gets a cache, and most of them are never queried.
type cacheShard struct {
	mu      sync.Mutex
	items   map[queryKey]int32
	entries []cacheEntry
	// head is the most and tail the least recently used entry (-1 when
	// empty).
	head, tail int32
	cap        int
}

// cacheEntry is one slab slot: an answer and its recency-list links (slab
// indices, -1 at either end).
type cacheEntry struct {
	key        queryKey
	val        float64
	prev, next int32
}

// NewCache returns a cache holding at most capacity answers in total,
// spread evenly over its shards. Capacity <= 0 returns nil (caching off).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			items: make(map[queryKey]int32),
			head:  -1,
			tail:  -1,
			cap:   perShard,
		}
	}
	return c
}

// shardOf hashes the key's bit patterns down to a shard index
// (splitmix64-style finalizer; the inputs are not adversarial — worst case
// a hot shard — so a fast non-cryptographic mix is fine).
func shardOf(k queryKey) int {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, f := range k {
		h ^= math.Float64bits(f)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return int(h & (cacheShards - 1))
}

// unlink removes slot i from the recency list.
func (s *cacheShard) unlink(i int32) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront links slot i in as the most recently used entry.
func (s *cacheShard) pushFront(i int32) {
	e := &s.entries[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// touch marks slot i most recently used.
func (s *cacheShard) touch(i int32) {
	if i != s.head {
		s.unlink(i)
		s.pushFront(i)
	}
}

// Get returns the cached answer for k, marking it most recently used.
func (c *Cache) Get(k queryKey) (float64, bool) {
	if c == nil {
		return 0, false
	}
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	i, ok := s.items[k]
	var v float64
	if ok {
		s.touch(i)
		// Read under the lock: Put updates existing entries in place.
		v = s.entries[i].val
	}
	s.mu.Unlock()
	return v, ok
}

// Put stores the answer for k, evicting the shard's least recently used
// entry when full.
func (c *Cache) Put(k queryKey, v float64) {
	if c == nil {
		return
	}
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	if i, ok := s.items[k]; ok {
		s.entries[i].val = v
		s.touch(i)
		s.mu.Unlock()
		return
	}
	var i int32
	if len(s.entries) < s.cap {
		i = int32(len(s.entries))
		if len(s.entries) == cap(s.entries) {
			// Double, but never past the shard's capacity: append's own
			// growth would overshoot it by up to a sixth.
			grown := make([]cacheEntry, len(s.entries), min(max(2*len(s.entries), 16), s.cap))
			copy(grown, s.entries)
			s.entries = grown
		}
		s.entries = append(s.entries, cacheEntry{})
	} else {
		// Full: the least recently used slot takes the new answer.
		i = s.tail
		delete(s.items, s.entries[i].key)
		s.unlink(i)
		c.evictions.Add(1)
	}
	s.entries[i].key, s.entries[i].val = k, v
	s.pushFront(i)
	s.items[k] = i
	s.mu.Unlock()
}

// Evictions returns the total number of answers evicted to make room.
func (c *Cache) Evictions() uint64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// cacheEntryBytes is the size of one cacheEntry slab slot (a 32-byte key,
// an 8-byte answer, two int32 links); TestCacheBytes pins it.
const cacheEntryBytes = 48

// mapSlotBytes approximates one occupied slot of a shard's index map: the
// 32-byte key, the 4-byte slab index padded to the key's alignment, and
// one control byte.
const mapSlotBytes = 41

// Bytes estimates the memory the cache holds: the entry slabs at their
// capacity plus the index maps at 7/16 load, the load of a map table that
// has just doubled. Eviction churn leaves tombstones that lower the real
// load further, so this is a floor: a full 65536-entry cache measured
// 9.4MB of heap once filled (estimate 9.3MB) and 15.7MB after 8M evicting
// Puts.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += int64(cap(s.entries))*cacheEntryBytes +
			int64(len(s.items))*mapSlotBytes*16/7
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of cached answers.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
