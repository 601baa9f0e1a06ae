package psd

import (
	"io"
	"math"
	"strings"
	"testing"
)

func clusteredPoints(n int, dom Rect, seed int64) []Point {
	// A deterministic two-cluster layout without importing internal/rng:
	// splitmix-style hashing.
	pts := make([]Point, n)
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := range pts {
		u, v := next(), next()
		if i%2 == 0 { // cluster near the lower-left
			pts[i] = Point{
				X: dom.Lo.X + u*dom.Width()*0.2,
				Y: dom.Lo.Y + v*dom.Height()*0.2,
			}
		} else {
			pts[i] = Point{
				X: dom.Lo.X + u*dom.Width(),
				Y: dom.Lo.Y + v*dom.Height(),
			}
		}
	}
	return pts
}

func TestQuickstartFlow(t *testing.T) {
	domain := NewRect(-124.82, 31.33, -103.00, 49.00)
	points := clusteredPoints(20000, domain, 1)
	tree, err := Build(points, domain, Options{
		Kind:    KDHybrid,
		Height:  6,
		Epsilon: 1.0,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.PrivacyCost(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", got)
	}
	if tree.Kind() != "kd-hybrid" {
		t.Errorf("Kind = %q", tree.Kind())
	}
	if tree.Height() != 6 {
		t.Errorf("Height = %d", tree.Height())
	}
	if tree.Domain() != domain {
		t.Error("Domain mismatch")
	}
	if tree.BuildTime() == "" {
		t.Error("BuildTime empty")
	}
	q := NewRect(-124.82, 31.33, -120, 36)
	truth := 0.0
	for _, p := range points {
		if q.Contains(p) {
			truth++
		}
	}
	got := tree.Count(q)
	if truth > 100 && math.Abs(got-truth)/truth > 0.5 {
		t.Errorf("Count = %v, truth = %v: more than 50%% off at eps=1", got, truth)
	}
}

func TestAllKindsBuild(t *testing.T) {
	domain := NewRect(0, 0, 100, 100)
	points := clusteredPoints(5000, domain, 2)
	cases := []struct {
		name string
		opts Options
	}{
		{"quadtree", Options{Kind: QuadtreeKind}},
		{"kd", Options{Kind: KDTree}},
		{"kd-hybrid", Options{Kind: KDHybrid}},
		{"hilbert-r", Options{Kind: HilbertRTree}},
		{"kd-cell", Options{Kind: KDCellTree}},
		{"kd-noisymean", Options{Kind: KDNoisyMeanTree}},
		{"privtree", Options{Kind: PrivTreeKind}},
		// Pruning collapses subtrees into single regions, so NumRegions must
		// count effective leaves, not 4^h.
		{"quadtree", Options{Kind: QuadtreeKind, PruneThreshold: 40}},
	}
	for _, c := range cases {
		opts := c.opts
		opts.Height, opts.Epsilon, opts.Seed = 4, 0.5, 3
		tree, err := Build(points, domain, opts)
		if err != nil {
			t.Fatalf("%v: %v", c.name, err)
		}
		if tree.Kind() != c.name {
			t.Errorf("Kind = %q, want %q", tree.Kind(), c.name)
		}
		if got := tree.PrivacyCost(); got > 0.5+1e-9 {
			t.Errorf("%v: privacy cost %v exceeds budget", c.name, got)
		}
		rects, _ := tree.Regions()
		if n := tree.NumRegions(); n == 0 || n != len(rects) {
			t.Errorf("%v (prune %v): NumRegions = %d, len(Regions) = %d", c.name, opts.PruneThreshold, n, len(rects))
		}
		if opts.PruneThreshold > 0 && len(rects) >= 1<<(2*opts.Height) {
			t.Errorf("%v: prune threshold %v left all %d leaves", c.name, opts.PruneThreshold, len(rects))
		}
	}
}

func TestAllBudgetsAndMedians(t *testing.T) {
	domain := NewRect(0, 0, 100, 100)
	points := clusteredPoints(3000, domain, 4)
	for _, b := range []BudgetStrategy{GeometricBudget, UniformBudget, LeafOnlyBudget} {
		if _, err := Build(points, domain, Options{
			Kind: QuadtreeKind, Height: 3, Epsilon: 0.5, Budget: b, Seed: 5,
		}); err != nil {
			t.Errorf("budget %v: %v", b, err)
		}
	}
	for _, m := range []MedianMethod{ExponentialMedian, SmoothMedian, SampledExponentialMedian} {
		if _, err := Build(points, domain, Options{
			Kind: KDTree, Height: 3, Epsilon: 0.5, Median: m, Seed: 6,
		}); err != nil {
			t.Errorf("median %v: %v", m, err)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	domain := NewRect(0, 0, 1, 1)
	pts := clusteredPoints(10, domain, 7)
	if _, err := Build(pts, domain, Options{Height: 2}); err == nil {
		t.Error("zero epsilon should error")
	}
	// Out-of-range enums fail with a descriptive error naming the bad value
	// and the valid range — never by leaking a bogus value downstream.
	for _, k := range []Kind{Kind(42), Kind(-1)} {
		_, err := Build(pts, domain, Options{Height: 2, Epsilon: 1, Kind: k})
		if err == nil {
			t.Fatalf("kind %d: expected error", k)
		}
		if !strings.Contains(err.Error(), "unknown kind") || !strings.Contains(err.Error(), "PrivTreeKind") {
			t.Errorf("kind %d: undescriptive error %q", k, err)
		}
	}
	for _, b := range []BudgetStrategy{BudgetStrategy(42), BudgetStrategy(-3)} {
		_, err := Build(pts, domain, Options{Height: 2, Epsilon: 1, Budget: b})
		if err == nil {
			t.Fatalf("budget %d: expected error", b)
		}
		if !strings.Contains(err.Error(), "unknown budget strategy") || !strings.Contains(err.Error(), "LeafOnlyBudget") {
			t.Errorf("budget %d: undescriptive error %q", b, err)
		}
	}
	if _, err := Build(pts, domain, Options{Height: 2, Epsilon: 1, Median: MedianMethod(42)}); err == nil {
		t.Error("unknown median should error")
	}
	if _, err := Build(pts, domain, Options{Height: 2, Epsilon: 1, Kind: KDTree, Theta: 3}); err == nil {
		t.Error("Theta on a non-PrivTree kind should error")
	}
	if _, err := Build(pts, domain, Options{Height: 2, Epsilon: 1, MaxDepth: 4}); err == nil {
		t.Error("MaxDepth on a non-PrivTree kind should error")
	}
	if _, err := Build(pts, Rect{}, Options{Height: 2, Epsilon: 1}); err == nil {
		t.Error("empty domain should error")
	}
}

// TestPrivTreePublicAPI pins the public surface of the adaptive kind:
// MaxDepth plays Height's role, builds are byte-identical at every
// parallelism for a fixed Seed (both artifact encodings), and Lambda/Theta
// pass through.
func TestPrivTreePublicAPI(t *testing.T) {
	domain := NewRect(0, 0, 100, 100)
	points := clusteredPoints(6000, domain, 13)
	build := func(par int) *Tree {
		tr, err := Build(points, domain, Options{
			Kind: PrivTreeKind, MaxDepth: 5, Epsilon: 0.5, Seed: 99, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	seq := build(1)
	if seq.Height() != 5 {
		t.Fatalf("MaxDepth 5 built height %d", seq.Height())
	}
	if seq.Kind() != "privtree" {
		t.Fatalf("kind %q", seq.Kind())
	}
	var wantJSON, wantBin strings.Builder
	if err := seq.WriteRelease(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := seq.WriteBinaryV3Release(&wantBin); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 8} {
		got := build(par)
		var js, bin strings.Builder
		if err := got.WriteRelease(&js); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteBinaryV3Release(&bin); err != nil {
			t.Fatal(err)
		}
		if js.String() != wantJSON.String() {
			t.Fatalf("par=%d: JSON release differs from sequential build", par)
		}
		if bin.String() != wantBin.String() {
			t.Fatalf("par=%d: binary release differs from sequential build", par)
		}
	}

	// The reopened artifacts answer exactly as the builder's tree, from
	// both written encodings.
	reopened, err := OpenSlab(strings.NewReader(wantJSON.String()))
	if err != nil {
		t.Fatal(err)
	}
	slab, err := OpenSlab(strings.NewReader(wantBin.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Rect{domain, NewRect(0, 0, 12.5, 12.5), NewRect(30, 40, 80, 41)} {
		want := seq.Count(q)
		if got := reopened.Count(q); got != want {
			t.Errorf("reopened Count(%v) = %v, want %v", q, got, want)
		}
		if got := slab.Count(q); got != want {
			t.Errorf("slab Count(%v) = %v, want %v", q, got, want)
		}
	}

	// A higher threshold coarsens the release through the public options.
	coarse, err := Build(points, domain, Options{
		Kind: PrivTreeKind, MaxDepth: 5, Epsilon: 0.5, Seed: 99, Theta: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.NumRegions() > seq.NumRegions() {
		t.Errorf("theta=200 released %d regions, theta=0 %d", coarse.NumRegions(), seq.NumRegions())
	}
}

func TestRegionsTileDomainForPartitionKinds(t *testing.T) {
	domain := NewRect(0, 0, 64, 64)
	points := clusteredPoints(2000, domain, 8)
	for _, k := range []Kind{QuadtreeKind, KDTree, KDHybrid, KDCellTree, PrivTreeKind} {
		tree, err := Build(points, domain, Options{Kind: k, Height: 3, Epsilon: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		rects, counts := tree.Regions()
		if len(rects) != len(counts) {
			t.Fatalf("%v: rects/counts length mismatch", k)
		}
		var area float64
		for _, r := range rects {
			area += r.Area()
		}
		if math.Abs(area-domain.Area()) > 1e-6*domain.Area() {
			t.Errorf("%v: regions cover %v, want %v", k, area, domain.Area())
		}
	}
}

func TestCountIsDeterministicAfterBuild(t *testing.T) {
	domain := NewRect(0, 0, 10, 10)
	points := clusteredPoints(1000, domain, 10)
	tree, err := Build(points, domain, Options{Kind: QuadtreeKind, Height: 3, Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	q := NewRect(1, 1, 7, 4)
	if tree.Count(q) != tree.Count(q) {
		t.Error("repeated queries must return identical answers")
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Point{{X: 1, Y: 2}, {X: -3, Y: 9}}
	bb := BoundingBox(pts)
	for _, p := range pts {
		if !bb.Contains(p) {
			t.Errorf("bounding box %v misses %v", bb, p)
		}
	}
}

func TestTuneToWorkload(t *testing.T) {
	domain := NewRect(0, 0, 64, 64)
	points := clusteredPoints(20000, domain, 14)
	workload := []Rect{
		NewRect(1, 1, 3, 3), NewRect(10, 4, 12, 6), NewRect(40, 40, 42, 41),
	}
	tree, err := Build(points, domain, Options{
		Kind: QuadtreeKind, Height: 5, Epsilon: 0.5, Seed: 15,
		TuneToWorkload: workload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.PrivacyCost(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("tuned PrivacyCost = %v, want 0.5", got)
	}
	// Statistically: on its own workload, the tuned tree should beat the
	// default geometric budget.
	meanErr := func(tune []Rect) float64 {
		var sum float64
		const trials = 20
		for s := int64(0); s < trials; s++ {
			tr, err := Build(points, domain, Options{
				Kind: QuadtreeKind, Height: 5, Epsilon: 0.1, Seed: 700 + s,
				TuneToWorkload: tune,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range workload {
				truth := 0.0
				for _, p := range points {
					if q.Contains(p) {
						truth++
					}
				}
				sum += math.Abs(tr.Count(q) - truth)
			}
		}
		return sum / trials
	}
	tuned := meanErr(workload)
	generic := meanErr(nil)
	if tuned >= generic {
		t.Errorf("tuned error %v should beat generic %v on its own workload", tuned, generic)
	}
}

// TestWriteV3Allocs pins the v3 write of a freshly built tree — seal the
// serving slab, encode it — at a handful of allocations, the same at
// height 6 as at height 8: nothing is allocated per node or per bitset
// word.
func TestWriteV3Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	dom := NewRect(0, 0, 1000, 1000)
	pts := clusteredPoints(20_000, dom, 7)
	const runs = 3
	allocs := func(height int) float64 {
		// AllocsPerRun makes one warm-up call before its runs; each call
		// gets its own tree so every write pays for the seal.
		trees := make([]*Tree, runs+1)
		for i := range trees {
			tree, err := Build(pts, dom, Options{Kind: KDTree, Height: height, Epsilon: 0.5, Seed: int64(i + 1), Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tree
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := trees[next].WriteBinaryV3Release(io.Discard); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	a, b := allocs(6), allocs(8)
	t.Logf("%v allocs per write at h6, %v at h8", a, b)
	if a != b {
		t.Errorf("%v allocs per write at h6 but %v at h8", a, b)
	}
	if b > 10 {
		t.Errorf("%v allocs per write, want <= 10", b)
	}
}
