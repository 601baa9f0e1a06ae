package serve

import (
	"sync/atomic"
	"time"
)

// stats accumulates serving counters for one release. All fields are
// atomics: queries from many connections record concurrently with no lock.
type stats struct {
	requests  atomic.Uint64 // HTTP-level count/batch requests
	queries   atomic.Uint64 // individual rectangles answered
	cacheHits atomic.Uint64 // rectangles answered from the cache
	totalNs   atomic.Int64  // summed request latency
	maxNs     atomic.Int64  // worst request latency
}

func (s *stats) record(queries, hits uint64, d time.Duration) {
	s.requests.Add(1)
	s.queries.Add(queries)
	s.cacheHits.Add(hits)
	ns := d.Nanoseconds()
	s.totalNs.Add(ns)
	for {
		cur := s.maxNs.Load()
		if ns <= cur || s.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// StatsSnapshot is the JSON shape of /v1/releases/{name}/stats.
type StatsSnapshot struct {
	// Requests is the number of count/batch requests served.
	Requests uint64 `json:"requests"`
	// Queries is the number of individual rectangles answered (a batch of
	// 100 adds 100).
	Queries uint64 `json:"queries"`
	// CacheHits / CacheMisses split Queries by whether the answer came from
	// the cache; CacheHitRate is their ratio (0 when no queries ran).
	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheLen is the number of answers currently cached.
	CacheLen int `json:"cache_len"`
	// CacheBytes estimates the memory the answer cache holds (Cache.Bytes):
	// it grows with the entries, so a never-queried release reports ~0.
	CacheBytes int64 `json:"cache_bytes"`
	// CacheEvictions is the number of answers displaced by capacity
	// pressure — the sizing signal for the -cache flag.
	CacheEvictions uint64 `json:"cache_evictions"`
	// MeanLatencyNs and MaxLatencyNs summarize request latency as observed
	// inside the handler (excluding network and JSON encoding of the
	// response body).
	MeanLatencyNs int64 `json:"mean_latency_ns"`
	MaxLatencyNs  int64 `json:"max_latency_ns"`
}

func (s *stats) snapshot(c *Cache) StatsSnapshot {
	snap := StatsSnapshot{
		Requests:       s.requests.Load(),
		Queries:        s.queries.Load(),
		CacheHits:      s.cacheHits.Load(),
		CacheLen:       c.Len(),
		CacheBytes:     c.Bytes(),
		CacheEvictions: c.Evictions(),
		MaxLatencyNs:   s.maxNs.Load(),
	}
	// The counters are loaded independently while writers run; clamp so a
	// snapshot racing a record can't underflow the misses.
	if snap.CacheHits > snap.Queries {
		snap.CacheHits = snap.Queries
	}
	snap.CacheMisses = snap.Queries - snap.CacheHits
	if snap.Queries > 0 {
		snap.CacheHitRate = float64(snap.CacheHits) / float64(snap.Queries)
	}
	if snap.Requests > 0 {
		snap.MeanLatencyNs = s.totalNs.Load() / int64(snap.Requests)
	}
	return snap
}
