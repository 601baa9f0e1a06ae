package serve

import (
	"bytes"
	"context"
	"testing"

	"psd"
)

// BenchmarkServeCount measures Release.Count — the full serving hot path
// under the HTTP handler (cache lookup, slab query, stats) — with the
// cache disabled (every call runs the query engine) and with a warm cache.
// Allocs are the headline: the acceptance bar is 0 allocs/op for both.
func BenchmarkServeCount(b *testing.B) {
	tree := buildTree(b, 77)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		b.Fatal(err)
	}
	q := psd.NewRect(10, 20, 55, 70)

	for _, mode := range []struct {
		name      string
		cacheSize int
	}{
		{"nocache", 0},
		{"cachehit", 1024},
	} {
		b.Run(mode.name, func(b *testing.B) {
			reg := NewRegistry(mode.cacheSize)
			rel, err := reg.Register("bench", "bench", bytes.NewReader(artifact.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			rel.Count(q) // warm the cache (and the stack pool)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel.Count(q)
			}
		})
	}
}

// BenchmarkServeBatch measures Release.CountBatchInto — the engine call
// behind the /batch endpoint — at serving batch sizes: with the cache off
// (every rectangle runs through one node-major engine call), fully warm
// (every rectangle is a hit), and churning (fresh rectangles against a
// full cache, so every rectangle misses and every insert evicts — the path
// a stream of never-repeating queries runs). Allocs are the headline: the
// acceptance bar is 0 allocs/op steady-state in every mode, since the miss
// scratch and the engine's traversal state are pooled and an eviction
// reuses the evicted cache slot.
func BenchmarkServeBatch(b *testing.B) {
	tree := buildTree(b, 79)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		b.Fatal(err)
	}
	d := tree.Domain()
	qs := make([]psd.Rect, 256)
	for i := range qs {
		fx := float64(i%16) / 16
		fy := float64(i/16) / 16
		qs[i] = psd.NewRect(
			d.Lo.X+fx*d.Width()*0.9, d.Lo.Y+fy*d.Height()*0.9,
			d.Lo.X+(fx+0.1)*d.Width()*0.9, d.Lo.Y+(fy+0.1)*d.Height()*0.9,
		)
	}
	for _, mode := range []struct {
		name      string
		cacheSize int
		churn     bool
	}{
		{"nocache", 0, false},
		{"cachehit", 1 << 14, false},
		{"churn", 1 << 10, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			rel := churnRelease(b, artifact.Bytes(), mode.cacheSize)
			vals := make([]float64, len(qs))
			var seq uint64
			next := func() {
				if mode.churn {
					seq++
					churnRects(qs, d, seq)
				}
			}
			// Warm the pools, and fill the cache when churning.
			for i := 0; i < 8; i++ {
				next()
				rel.CountBatchInto(vals, qs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
				rel.CountBatchInto(vals, qs)
			}
			b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// TestServeBatchChurnAllocs pins the miss path at 0 allocs: a batch of
// never-repeating rectangles against a full cache, where every rectangle
// misses and every insert evicts.
func TestServeBatchChurnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tree := buildTree(t, 79)
	var artifact bytes.Buffer
	if err := tree.WriteBinaryV3Release(&artifact); err != nil {
		t.Fatal(err)
	}
	rel := churnRelease(t, artifact.Bytes(), 1<<10)
	qs := make([]psd.Rect, 256)
	vals := make([]float64, len(qs))
	ctx := context.Background()
	var seq uint64
	batch := func() {
		seq++
		churnRects(qs, tree.Domain(), seq)
		if hits, _, err := rel.CountBatchIntoCtx(ctx, vals, qs); err != nil || hits != 0 {
			t.Fatalf("hits %d, err %v: want all misses", hits, err)
		}
	}
	for i := 0; i < 8; i++ {
		batch()
	}
	before := rel.Stats().CacheEvictions
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("churning CountBatchIntoCtx: %v allocs, want 0", allocs)
	}
	if got := rel.Stats().CacheEvictions - before; got != 101*uint64(len(qs)) {
		t.Fatalf("%d evictions in 101 batches of %d, want one per rectangle", got, len(qs))
	}
}

func churnRelease(tb testing.TB, artifact []byte, cacheSize int) *Release {
	tb.Helper()
	rel, err := NewRegistry(cacheSize).Register("bench", "bench", bytes.NewReader(artifact))
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// churnRects fills qs with rectangles of a tenth of the domain's sides at
// positions drawn from (seq, index) by splitmix64, so batches with
// different seq never share a rectangle.
func churnRects(qs []psd.Rect, d psd.Rect, seq uint64) {
	s := seq * uint64(len(qs)) * 2
	next := func() float64 {
		s++
		z := s * 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := range qs {
		x := d.Lo.X + next()*d.Width()*0.9
		y := d.Lo.Y + next()*d.Height()*0.9
		qs[i] = psd.NewRect(x, y, x+d.Width()/10, y+d.Height()/10)
	}
}

// BenchmarkRegister measures artifact open into the registry — the hot
// reload path — for both encodings of the same release.
func BenchmarkRegister(b *testing.B) {
	tree := buildTree(b, 78)
	var jsonBuf, binBuf bytes.Buffer
	if err := tree.WriteRelease(&jsonBuf); err != nil {
		b.Fatal(err)
	}
	if err := tree.WriteBinaryV3Release(&binBuf); err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"json", jsonBuf.Bytes()},
		{"binary", binBuf.Bytes()},
	} {
		b.Run(enc.name, func(b *testing.B) {
			reg := NewRegistry(0)
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.Register("bench", "bench", bytes.NewReader(enc.data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
