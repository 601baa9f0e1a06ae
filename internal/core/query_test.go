package core

import (
	"math"
	"testing"

	"psd/internal/budget"
	"psd/internal/geom"
	"psd/internal/rng"
)

// With zero noise and exact medians, Query must equal TrueAnswer for every
// query and every decomposition family: both run the same canonical
// recursion over identical estimates. This pins the query engine to the
// exact reference implementation across the whole design space.
func TestNonPrivateQueryMatchesTrueAnswerAllKinds(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := randomPoints(4096, dom, 31)
	kinds := []Kind{Quadtree, KD, Hybrid, HilbertR, KDCell, KDNoisyMean, PrivTree}
	src := rng.New(32)
	for _, kind := range kinds {
		cfg := Config{Kind: kind, Height: 3, NonPrivate: true, HilbertOrder: 10, CellSize: 1}
		p, err := Build(pts, dom, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for trial := 0; trial < 100; trial++ {
			x1, x2 := src.UniformIn(-5, 69), src.UniformIn(-5, 69)
			y1, y2 := src.UniformIn(-5, 69), src.UniformIn(-5, 69)
			if x2 < x1 {
				x1, x2 = x2, x1
			}
			if y2 < y1 {
				y1, y2 = y2, y1
			}
			q := geom.NewRect(x1, y1, x2, y2)
			got, want := p.Sealed().Query(q), p.TrueAnswer(q)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%v: query %v = %v, true recursion %v", kind, q, got, want)
			}
		}
	}
}

// The exact full-domain count is preserved by every non-private build: no
// family loses or duplicates points during structure construction.
func TestNoKindLosesPoints(t *testing.T) {
	dom := geom.NewRect(-10, -10, 10, 10)
	pts := randomPoints(2500, dom, 33)
	for _, kind := range []Kind{Quadtree, KD, Hybrid, HilbertR, KDCell, KDNoisyMean, PrivTree} {
		p, err := Build(pts, dom, Config{Kind: kind, Height: 3, NonPrivate: true, HilbertOrder: 9, CellSize: 0.5})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got := p.Arena().Root().True; got != 2500 {
			t.Errorf("%v: root holds %v points, want 2500", kind, got)
		}
		// Leaf counts sum to the total as well.
		var sum float64
		for k := 0; k < p.Arena().NumLeaves(); k++ {
			sum += p.Arena().Nodes[p.Arena().LeafIndex(k)].True
		}
		if sum != 2500 {
			t.Errorf("%v: leaves hold %v points, want 2500", kind, sum)
		}
	}
}

func TestQueryOutsideDomainIsZero(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := randomPoints(500, dom, 34)
	for _, kind := range []Kind{Quadtree, HilbertR} {
		p, err := Build(pts, dom, Config{Kind: kind, Height: 2, NonPrivate: true, HilbertOrder: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Sealed().Query(geom.NewRect(100, 100, 200, 200)); got != 0 {
			t.Errorf("%v: disjoint query = %v", kind, got)
		}
	}
}

func TestHilbertDegenerateRangesAreHarmless(t *testing.T) {
	// All points identical: after a few splits most Hilbert ranges are
	// empty and their rects degenerate. Build and query must stay sane.
	dom := geom.NewRect(0, 0, 10, 10)
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: 5, Y: 5}
	}
	p, err := Build(pts, dom, Config{Kind: HilbertR, Height: 3, Epsilon: 1, Seed: 35, HilbertOrder: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Arena().Root().True; got != 100 {
		t.Errorf("root = %v, want 100", got)
	}
	// The full domain finds everything. A tight query around the mass may
	// legitimately undercount: the mass's leaf bbox can be much larger than
	// the point cluster and the uniformity assumption spreads the count
	// over it — exactly the Hilbert R-tree failure mode Section 8.2 reports
	// ("comparably good performance on some queries, much higher errors on
	// others"). We only require sanity, not accuracy, here.
	got := p.Sealed().Query(geom.NewRect(-1, -1, 11, 11))
	if math.Abs(got-100) > 30 {
		t.Errorf("full-domain query = %v, want ≈ 100", got)
	}
	if tight := p.Sealed().Query(geom.NewRect(4, 4, 6, 6)); tight < 0 || tight > 200 {
		t.Errorf("point-mass query = %v, want sane", tight)
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	dom := geom.NewRect(0, 0, 16, 16)
	pts := gridPoints(16, dom)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, NonPrivate: true})
	if err != nil {
		t.Fatal(err)
	}
	_, st := p.Sealed().QueryWithStats(geom.NewRect(0, 0, 16, 16))
	if st.NodesAdded != 1 || st.NodesVisited != 1 {
		t.Errorf("full-domain stats = %+v, want 1 node", st)
	}
	_, st = p.Sealed().QueryWithStats(geom.NewRect(0.1, 0.1, 15.9, 15.9))
	if st.PartialLeaves == 0 || st.NodesVisited <= st.NodesAdded {
		t.Errorf("interior-query stats implausible: %+v", st)
	}
}

// Query error decreases monotonically (statistically) as epsilon grows —
// the privacy/utility dial works end to end.
func TestErrorShrinksWithEpsilon(t *testing.T) {
	dom := geom.NewRect(0, 0, 64, 64)
	pts := gridPoints(64, dom)
	q := geom.NewRect(3, 3, 30, 27)
	meanErr := func(eps float64) float64 {
		var sum float64
		const trials = 25
		for s := int64(0); s < trials; s++ {
			p, err := Build(pts, dom, Config{
				Kind: Quadtree, Height: 4, Epsilon: eps, Seed: 600 + s,
				Strategy: budget.Geometric{}, PostProcess: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum += math.Abs(p.Sealed().Query(q) - p.TrueAnswer(q))
		}
		return sum / trials
	}
	e1, e2, e3 := meanErr(0.05), meanErr(0.5), meanErr(5)
	if !(e3 < e2 && e2 < e1) {
		t.Errorf("errors should fall with eps: %v, %v, %v", e1, e2, e3)
	}
}
