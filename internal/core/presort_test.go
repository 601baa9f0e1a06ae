package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"testing"

	"psd/internal/geom"
	"psd/internal/median"
	"psd/internal/rng"
	"psd/internal/tree"
)

// nodesBitEqual is nodesEqual with every float compared bit for bit, so a
// −0 where the reference has +0 is a difference.
func nodesBitEqual(t *testing.T, name string, a, b *PSD) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: tree sizes differ: %d vs %d", name, a.Len(), b.Len())
	}
	bits := func(n tree.Node) [7]uint64 {
		return [7]uint64{
			math.Float64bits(n.Rect.Lo.X), math.Float64bits(n.Rect.Lo.Y),
			math.Float64bits(n.Rect.Hi.X), math.Float64bits(n.Rect.Hi.Y),
			math.Float64bits(n.True), math.Float64bits(n.Noisy), math.Float64bits(n.Est),
		}
	}
	for i, na := range a.Arena().Nodes {
		nb := b.Arena().Nodes[i]
		if bits(na) != bits(nb) || na.Published != nb.Published || na.Pruned != nb.Pruned {
			t.Fatalf("%s: node %d differs:\n  %+v\n  %+v", name, i, na, nb)
		}
	}
}

// sortAlong's radix order must be the float order along the axis, across
// signs, magnitudes, subnormals and ties, and the sort must be stable.
func TestSortAlong(t *testing.T) {
	src := rng.New(8)
	special := []float64{0, -1, 1, -1e300, 1e300, 5e-324, -5e-324, 0.5, -0.5, 3}
	for _, n := range []int{0, 1, 2, 17, 1000} {
		pts := make([]geom.Point, n)
		for i := range pts {
			x := special[i%len(special)]
			if i%3 == 0 {
				x = src.UniformIn(-1e6, 1e6)
			}
			pts[i] = geom.Point{X: x, Y: float64(i)} // Y records input order
		}
		for _, axis := range []geom.Axis{geom.AxisX, geom.AxisY} {
			want := slices.Clone(pts)
			slices.SortStableFunc(want, func(a, b geom.Point) int { return cmp.Compare(axis.Coord(a), axis.Coord(b)) })
			got := slices.Clone(pts)
			sortAlong(got, make([]geom.Point, n), axis)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d axis=%v: radix order differs from a stable float sort", n, axis)
			}
		}
	}
}

// sortHidden hides a finder's MedianSorted, forcing the builders onto the
// path where every median sorts its node's values itself.
type sortHidden struct{ median.StreamFinder }

func TestSortHiddenForcesUnsortedPath(t *testing.T) {
	var f median.Finder = sortHidden{&median.EM{}}
	if _, ok := f.(median.SortedFinder); ok {
		t.Fatal("sortHidden still exposes MedianSorted")
	}
	if !median.Streamable(f) {
		t.Fatal("sortHidden must stay streamable, or the comparison loses its parallel builds")
	}
}

// A median that lands on a zero must not take its sign bit from how a sort
// happened to order −0 and +0: a build over mixed zeros equals the build
// over the same data with every −0 replaced by +0, bit for bit.
func TestMixedZeroBuildsMatchCanonical(t *testing.T) {
	dom := geom.NewRect(-1, -1, 1, 1)
	negZero := math.Copysign(0, -1)
	src := randomPoints(3000, dom, 17)
	mixed := make([]geom.Point, len(src))
	canon := make([]geom.Point, len(src))
	for i, p := range src {
		// Most coordinates sit on a zero so every median lands on one.
		if i%4 != 0 {
			p.X = 0
			if i%3 == 0 {
				p.X = negZero
			}
		}
		if i%5 != 0 {
			p.Y = negZero
			if i%2 == 0 {
				p.Y = 0
			}
		}
		mixed[i] = p
		canon[i] = p
		if p.X == 0 {
			canon[i].X = 0
		}
		if p.Y == 0 {
			canon[i].Y = 0
		}
	}
	for name, cfg := range map[string]Config{
		"kd":      {Kind: KD, Height: 4, Epsilon: 1, Seed: 3},
		"kd-true": {Kind: KD, Height: 4, Epsilon: 1, Seed: 3, TrueMedians: true},
	} {
		for _, workers := range []int{1, 2} {
			cfg.Parallelism = workers
			got, err := Build(mixed, dom, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(canon, dom, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodesBitEqual(t, name, got, want)
		}
	}
	pts, err := clampPoints([]geom.Point{{X: negZero, Y: negZero}}, dom)
	if err != nil {
		t.Fatal(err)
	}
	if math.Signbit(pts[0].X) || math.Signbit(pts[0].Y) {
		t.Errorf("clampPoints kept a −0: %v", pts[0])
	}
}

// The kd builds' allocation count is pinned: it must not grow with the
// number of points (no per-node or per-median allocation) and stays small.
// Hilbert-R is not pinned: hilbert.CellBounds allocates once per node.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// The runtime allocates its GC workers on the first collection; make
	// sure that has happened before a large build triggers it.
	runtime.GC()
	dom := geom.NewRect(0, 0, 1000, 1000)
	small := randomPoints(10_000, dom, 5)
	large := randomPoints(163_840, dom, 6)
	for name, cfg := range map[string]Config{
		"kd-h8":        {Kind: KD, Height: 8, Epsilon: 0.5, Seed: 1, Parallelism: 1},
		"kd-hybrid-h8": {Kind: Hybrid, Height: 8, Epsilon: 0.5, Seed: 1, Parallelism: 1},
	} {
		// Three runs per average: AllocsPerRun floors, so a stray runtime
		// allocation (a GC worker, say) cannot tip the count.
		allocs := func(pts []geom.Point) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Build(pts, dom, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := allocs(small), allocs(large)
		t.Logf("%s: %v allocs per build", name, b)
		if a != b {
			t.Errorf("%s: %v allocs at %d points but %v at %d", name, a, len(small), b, len(large))
		}
		if b >= 100 {
			t.Errorf("%s: %v allocs per build, want < 100", name, b)
		}
	}
}

// fuzzCoord maps a byte onto a coordinate of the fuzz domain [-16, 16): a
// 1/8 grid (many duplicates, and every midpoint split line of the domain),
// plus −0 and points on or beyond the domain edges.
func fuzzCoord(b byte) float64 {
	switch b {
	case 0x7f:
		return math.Copysign(0, -1)
	case 0x7e:
		return 16 // the open upper edge: clamped just inside
	case 0x7d:
		return 1e9
	case 0x7c:
		return -1e9
	}
	return float64(int8(b)) / 8
}

// FuzzPresortedBuild is the differential check of the sort-once builders:
// for kd, kd-hybrid and Hilbert-R with each sort-based finder, the
// production build (presorted, at 1 or 2 workers) must release exactly the
// arena of a build whose finder hides MedianSorted and so sorts every node
// itself.
func FuzzPresortedBuild(f *testing.F) {
	repeat := func(pat []byte, n int) []byte {
		var out []byte
		for len(out) < n {
			out = append(out, pat...)
		}
		return out
	}
	var ramp []byte
	for i := 0; i < 256; i++ {
		ramp = append(ramp, byte(i), byte(i*37+11))
	}
	seeds := [][]byte{
		nil,                                  // no points: every node empty
		{0x10, 0x20},                         // N = 1
		{0x10, 0x20, 0x30, 0x40},             // N = 2
		{0x00, 0x00, 0x7f, 0x7f, 0x00, 0x7f}, // N = 3, ±0
		repeat([]byte{0x10, 0x10}, 128),      // all coordinates equal
		repeat([]byte{0x00, 0x7f, 0x7f, 0x00, 0x40, 0xc0}, 150),             // split lines and ±0
		repeat([]byte{0x80, 0x7e, 0x7d, 0x7c, 0x80, 0x80, 0x7e, 0x7e}, 100), // domain edges
		repeat([]byte{0x08, 0x08, 0x08, 0x09, 0xf0, 0x08}, 120),             // heavy duplicates
		ramp,
	}
	for _, s := range seeds {
		for sel := uint8(0); sel < 9; sel++ {
			f.Add(s, sel, uint8(3), int64(sel))
		}
	}
	dom := geom.NewRect(-16, -16, 16, 16)
	kinds := [...]Kind{KD, Hybrid, HilbertR}
	finders := [...]func() median.StreamFinder{
		func() median.StreamFinder { return &median.EM{} },
		func() median.StreamFinder { return &median.SS{Delta: 1e-4} },
		func() median.StreamFinder { return median.Exact{} },
	}
	f.Fuzz(func(t *testing.T, data []byte, sel, height uint8, seed int64) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			pts[i] = geom.Point{X: fuzzCoord(data[2*i]), Y: fuzzCoord(data[2*i+1])}
		}
		cfg := Config{
			Kind: kinds[sel%3], Height: int(height % 5), Epsilon: 1, Seed: seed,
			HilbertOrder: 3 + uint(sel/9)%4,
		}
		fin := finders[(sel/3)%3]
		prod, ref := cfg, cfg
		prod.Median, prod.Parallelism = fin(), 1+int(seed&1)
		ref.Median, ref.Parallelism = sortHidden{fin()}, 1
		got, gerr := Build(pts, dom, prod)
		want, werr := Build(pts, dom, ref)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("errors differ: presorted %v, per-node sort %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		nodesBitEqual(t, cfg.Kind.String()+"/"+prod.Median.Name(), got, want)
		if got.Stats().MedianCalls != want.Stats().MedianCalls {
			t.Fatalf("MedianCalls %d != %d", got.Stats().MedianCalls, want.Stats().MedianCalls)
		}
	})
}
