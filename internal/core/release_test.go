package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"psd/internal/budget"
	"psd/internal/geom"
)

func TestReleaseRoundTrip(t *testing.T) {
	dom := geom.NewRect(0, 0, 100, 100)
	pts := randomPoints(4096, dom, 21)
	orig, err := Build(pts, dom, Config{
		Kind: Hybrid, Height: 4, Epsilon: 0.5, Seed: 3,
		PostProcess: true, PruneThreshold: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.Release().WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	rel, err := ReadRelease(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := rel.Slab()
	if err != nil {
		t.Fatal(err)
	}
	// Queries through the reopened release match the original exactly.
	queries := []geom.Rect{
		dom,
		geom.NewRect(10, 10, 40, 60),
		geom.NewRect(0, 0, 1, 1),
		geom.NewRect(99, 99, 100, 100),
	}
	for _, q := range queries {
		a, b := orig.arenaQuery(q), reopened.Query(q)
		if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Errorf("query %v: original %v, reopened %v", q, a, b)
		}
	}
	// Metadata survives.
	if reopened.Kind() != orig.Kind() {
		t.Errorf("kind = %v, want %v", reopened.Kind(), orig.Kind())
	}
	if math.Abs(reopened.PrivacyCost()-orig.PrivacyCost()) > 1e-9 {
		t.Errorf("privacy cost = %v, want %v", reopened.PrivacyCost(), orig.PrivacyCost())
	}
	// Pruned regions survive: the effective leaf sets agree.
	ra, ca := orig.arenaLeafRegions()
	rb, cb := reopened.LeafRegions()
	if len(ra) != len(rb) {
		t.Fatalf("leaf regions: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] || math.Abs(ca[i]-cb[i]) > 1e-9 {
			t.Fatalf("region %d mismatch", i)
		}
	}
}

func TestReleaseLeafOnlyRoundTrip(t *testing.T) {
	// Releases without post-processing publish only some levels; the
	// reopened tree must still answer by descending to published nodes.
	dom := geom.NewRect(0, 0, 16, 16)
	pts := gridPoints(16, dom)
	orig, err := Build(pts, dom, Config{
		Kind: Quadtree, Height: 2, Epsilon: 4, Seed: 5,
		Strategy: budget.LeafOnly{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.Release().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rel, err := ReadRelease(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := rel.Slab()
	if err != nil {
		t.Fatal(err)
	}
	q := geom.NewRect(0, 0, 8, 8)
	if a, b := orig.arenaQuery(q), reopened.Query(q); math.Abs(a-b) > 1e-9 {
		t.Errorf("leaf-only query: original %v, reopened %v", a, b)
	}
}

func TestReleaseCarriesNoTrueCounts(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := randomPoints(1000, dom, 22)
	p, err := Build(pts, dom, Config{Kind: Quadtree, Height: 2, Epsilon: 0.5, Seed: 7, PostProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Release().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The serialized artifact must not contain the exact root count — a
	// crude but effective leak check (the true count is an integer; the
	// noisy estimates almost surely are not).
	exact := p.Arena().Root().True
	if exact != 1000 {
		t.Fatalf("unexpected root count %v", exact)
	}
	if strings.Contains(buf.String(), `"true"`) {
		t.Error("release JSON contains a field named true")
	}
}

func TestReleaseSlabValidation(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	pts := randomPoints(100, dom, 23)
	p, _ := Build(pts, dom, Config{Kind: Quadtree, Height: 1, Epsilon: 1, Seed: 1})
	good := p.Release()

	bad := *good
	bad.Version = 99
	if _, err := bad.Slab(); err == nil {
		t.Error("bad version should error")
	}
	bad = *good
	bad.Fanout = 2
	if _, err := bad.Slab(); err == nil {
		t.Error("bad fanout should error")
	}
	bad = *good
	bad.Rects = bad.Rects[:1]
	if _, err := bad.Slab(); err == nil {
		t.Error("truncated rects should error")
	}
	bad = *good
	bad.Kind = "mystery"
	if _, err := bad.Slab(); err == nil {
		t.Error("unknown kind should error")
	}
	bad = *good
	bad.Pruned = []int{999}
	if _, err := bad.Slab(); err == nil {
		t.Error("out-of-range pruned index should error")
	}
	bad = *good
	nan := math.NaN()
	bad.Counts = append([]*float64{}, good.Counts...)
	bad.Counts[0] = &nan
	if _, err := bad.Slab(); err == nil {
		t.Error("NaN count should error")
	}
	bad = *good
	bad.Rects = append([][4]float64{}, good.Rects...)
	bad.Rects[0] = [4]float64{5, 5, 1, 1}
	if _, err := bad.Slab(); err == nil {
		t.Error("inverted rect should error")
	}
	bad = *good
	bad.Rects = append([][4]float64{}, good.Rects...)
	bad.Rects[1] = [4]float64{0, 0, math.Inf(1), 1}
	if _, err := bad.Slab(); err == nil {
		t.Error("non-finite rect should error")
	}
	bad = *good
	bad.Epsilon = math.Inf(1)
	if _, err := bad.Slab(); err == nil {
		t.Error("non-finite epsilon should error")
	}
	bad = *good
	bad.Epsilon = -1
	if _, err := bad.Slab(); err == nil {
		t.Error("negative epsilon should error")
	}
	bad = *good
	bad.Domain = [4]float64{0, 0, math.NaN(), 10}
	if _, err := bad.Slab(); err == nil {
		t.Error("non-finite domain should error")
	}
	bad = *good
	bad.Domain = [4]float64{10, 10, 0, 0}
	if _, err := bad.Slab(); err == nil {
		t.Error("inverted domain should error")
	}
	bad = *good
	bad.Pruned = []int{1, 1}
	if _, err := bad.Slab(); err == nil {
		t.Error("duplicate pruned index should error")
	}
	bad = *good
	bad.Height = -1
	if _, err := bad.Slab(); err == nil {
		t.Error("negative height should error")
	}
	if _, err := ReadRelease(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON should error")
	}
	// A huge declared height with a tiny rects array must be rejected by the
	// pre-allocation length check, not by attempting to size the slab.
	if _, err := ReadRelease(strings.NewReader(
		`{"version":1,"kind":"quadtree","epsilon":1,"fanout":4,"height":12,` +
			`"domain":[0,0,1,1],"rects":[[0,0,1,1]],"counts":[1]}`)); err == nil {
		t.Error("height/length mismatch should error")
	}
	if _, err := ReadRelease(strings.NewReader(
		`{"version":1,"kind":"quadtree","epsilon":1,"fanout":4,"height":30,` +
			`"domain":[0,0,1,1],"rects":[],"counts":[]}`)); err == nil {
		t.Error("absurd height should error")
	}
}

func TestBuildRejectsNonFinitePoints(t *testing.T) {
	dom := geom.NewRect(0, 0, 10, 10)
	for _, p := range []geom.Point{
		{X: math.NaN(), Y: 1},
		{X: 1, Y: math.Inf(1)},
	} {
		if _, err := Build([]geom.Point{p}, dom, Config{Kind: Quadtree, Height: 1, Epsilon: 1}); err == nil {
			t.Errorf("point %v should be rejected", p)
		}
	}
}
