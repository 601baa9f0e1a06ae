package serve

import (
	"container/list"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func key(a, b, c, d float64) queryKey { return queryKey{a, b, c, d} }

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64)
	if _, ok := c.Get(key(0, 0, 1, 1)); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put(key(0, 0, 1, 1), 42)
	if v, ok := c.Get(key(0, 0, 1, 1)); !ok || v != 42 {
		t.Fatalf("got (%v,%v), want (42,true)", v, ok)
	}
	// Overwrite updates the value in place.
	c.Put(key(0, 0, 1, 1), 43)
	if v, _ := c.Get(key(0, 0, 1, 1)); v != 43 {
		t.Fatalf("got %v, want 43", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestCacheBounded(t *testing.T) {
	const capacity = 128
	c := NewCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(key(float64(i), 0, float64(i)+1, 1), float64(i))
	}
	if n := c.Len(); n > capacity+cacheShards {
		t.Fatalf("cache grew to %d entries, capacity %d", n, capacity)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// A capacity-64 cache has four slots per shard. Fill one shard with
	// a, b, c, d, refresh a by a Get and c by an update, then insert two
	// more colliding keys: each insert must evict exactly the least
	// recently used entry.
	c := NewCache(4 * cacheShards)
	shard := shardOf(key(1, 2, 3, 4))
	var ks []queryKey
	for i := 1.0; len(ks) < 6; i++ {
		if k := key(i, i, i+1, i+1); shardOf(k) == shard {
			ks = append(ks, k)
		}
	}
	a, b, cc, d, e, f := ks[0], ks[1], ks[2], ks[3], ks[4], ks[5]
	for i, k := range ks[:4] {
		c.Put(k, float64(i))
	} // recency, most recent first: d c b a
	c.Get(a)     // a d c b
	c.Put(cc, 9) // c a d b
	c.Put(e, 4)  // evicts b: e c a d
	c.Put(f, 5)  // evicts d: f e c a
	if c.Evictions() != 2 || c.Len() != 4 {
		t.Fatalf("evictions %d, len %d, want 2 and 4", c.Evictions(), c.Len())
	}
	for _, k := range []queryKey{b, d} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%v survived eviction", k)
		}
	}
	for k, want := range map[queryKey]float64{a: 0, cc: 9, e: 4, f: 5} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%v) = (%v,%v), want (%v,true)", k, v, ok, want)
		}
	}
}

// refCache is the reference LRU the slab cache must agree with: the same
// shards, shard hash and per-shard capacity, over container/list.
type refCache struct {
	shards    [cacheShards]refShard
	evictions uint64
}

type refShard struct {
	items map[queryKey]*list.Element
	order *list.List // front = most recently used
	cap   int
}

type refEntry struct {
	key queryKey
	val float64
}

func newRefCache(capacity int) *refCache {
	c := &refCache{}
	for i := range c.shards {
		c.shards[i] = refShard{
			items: map[queryKey]*list.Element{},
			order: list.New(),
			cap:   (capacity + cacheShards - 1) / cacheShards,
		}
	}
	return c
}

func (c *refCache) Get(k queryKey) (float64, bool) {
	s := &c.shards[shardOf(k)]
	el, ok := s.items[k]
	if !ok {
		return 0, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*refEntry).val, true
}

func (c *refCache) Put(k queryKey, v float64) {
	s := &c.shards[shardOf(k)]
	if el, ok := s.items[k]; ok {
		el.Value.(*refEntry).val = v
		s.order.MoveToFront(el)
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		delete(s.items, oldest.Value.(*refEntry).key)
		s.order.Remove(oldest)
		c.evictions++
	}
	s.items[k] = s.order.PushFront(&refEntry{key: k, val: v})
}

func (c *refCache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].order.Len()
	}
	return n
}

// TestCacheMatchesReference drives the slab cache and the container/list
// reference through the same random Get/Put sequences. Keys come from a
// pool about twice the capacity, so hits, misses, in-place updates and
// evictions all occur; every result, Len and Evictions must agree.
func TestCacheMatchesReference(t *testing.T) {
	for _, capacity := range []int{16, 17, 40, 64, 100, 256} {
		rnd := rand.New(rand.NewPCG(uint64(capacity), 1))
		c, ref := NewCache(capacity), newRefCache(capacity)
		pool := make([]queryKey, 2*capacity+7)
		for i := range pool {
			x := float64(i)
			pool[i] = key(x, -x, x+0.5, x*x)
		}
		for op := 0; op < 50*capacity; op++ {
			k := pool[rnd.IntN(len(pool))]
			if rnd.IntN(2) == 0 {
				v, ok := c.Get(k)
				rv, rok := ref.Get(k)
				if ok != rok || math.Float64bits(v) != math.Float64bits(rv) {
					t.Fatalf("cap %d op %d: Get(%v) = (%v,%v), reference (%v,%v)", capacity, op, k, v, ok, rv, rok)
				}
			} else {
				v := float64(op)
				c.Put(k, v)
				ref.Put(k, v)
			}
			if c.Len() != ref.Len() || c.Evictions() != ref.evictions {
				t.Fatalf("cap %d op %d: len %d evictions %d, reference %d and %d",
					capacity, op, c.Len(), c.Evictions(), ref.Len(), ref.evictions)
			}
		}
		if c.Evictions() == 0 {
			t.Fatalf("cap %d: no evictions exercised", capacity)
		}
	}
}

// TestCacheMissAllocs pins the miss path of a full cache at zero
// allocations: a Get that misses and a Put that evicts reuse the slab.
func TestCacheMissAllocs(t *testing.T) {
	const capacity = 256
	c := NewCache(capacity)
	for i := 0; i < 4*capacity; i++ {
		c.Put(key(float64(i), 0, 1, 1), 1)
	}
	next := 4 * capacity
	allocs := testing.AllocsPerRun(1000, func() {
		k := key(float64(next), 0, 1, 1)
		next++
		if _, ok := c.Get(k); ok {
			t.Fatal("fresh key hit")
		}
		c.Put(k, 1)
	})
	if allocs != 0 {
		t.Fatalf("miss + evicting Put: %v allocs, want 0", allocs)
	}
	if c.Len() != capacity {
		t.Fatalf("len %d, want %d", c.Len(), capacity)
	}
}

// TestNewCacheLazy: a fresh cache costs what it holds, not its capacity.
// Every loaded version of a release family gets one at psdserve's default
// -cache, and most versions are never queried.
func TestNewCacheLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache(1 << 16)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Fatalf("NewCache(1<<16) allocated %d bytes, want < 64KB", d)
	}
}

// TestCacheBytes: the estimate starts at zero, grows with the entries, and
// its slab term uses the real entry size and capacity.
func TestCacheBytes(t *testing.T) {
	if got := reflect.TypeOf(cacheEntry{}).Size(); got != cacheEntryBytes {
		t.Fatalf("cacheEntry is %d bytes, cacheEntryBytes says %d", got, cacheEntryBytes)
	}
	var nilCache *Cache
	if nilCache.Bytes() != 0 {
		t.Fatal("nil cache reports bytes")
	}
	c := NewCache(1 << 10)
	if c.Bytes() != 0 {
		t.Fatalf("empty cache reports %d bytes", c.Bytes())
	}
	for i := 0; i < 4<<10; i++ {
		c.Put(key(float64(i), 0, 1, 1), 1)
	}
	min := int64(c.Len()) * (cacheEntryBytes + mapSlotBytes)
	if got := c.Bytes(); got < min {
		t.Fatalf("full cache reports %d bytes, want >= %d", got, min)
	}
	// The slab grows to the shard's capacity and no further.
	for i := range c.shards {
		if s := &c.shards[i]; cap(s.entries) != s.cap {
			t.Fatalf("shard %d: slab capacity %d, shard capacity %d", i, cap(s.entries), s.cap)
		}
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	c.Put(key(0, 0, 1, 1), 1)
	if _, ok := c.Get(key(0, 0, 1, 1)); ok {
		t.Fatal("nil cache should always miss")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache should be empty")
	}
	if NewCache(0) != nil {
		t.Fatal("NewCache(0) should disable caching")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(float64(i%100), float64(g), 1, 1)
				if v, ok := c.Get(k); ok && v != float64(i%100) {
					t.Errorf("corrupted value %v for %v", v, k)
					return
				}
				c.Put(k, float64(i%100))
			}
		}(g)
	}
	wg.Wait()
}
