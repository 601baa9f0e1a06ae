package psd

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

func expSalaries(n int, seed int64) []float64 {
	vals := make([]float64, n)
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / float64(1<<53)
	}
	for i := range vals {
		v := 40000 * (1 - math.Log(1-next()*0.95))
		if v >= 500000 {
			v = 499999
		}
		vals[i] = v
	}
	return vals
}

func TestBuild1DCounts(t *testing.T) {
	vals := expSalaries(30000, 1)
	tree, err := Build1D(vals, 0, 500000, Options{Height: 5, Epsilon: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.PrivacyCost(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("PrivacyCost = %v, want 1.0", got)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, band := range [][2]float64{{0, 60000}, {60000, 120000}, {120000, 500000}} {
		truth := float64(sort.SearchFloat64s(sorted, band[1]) - sort.SearchFloat64s(sorted, band[0]))
		got := tree.Count(band[0], band[1])
		if truth > 500 && math.Abs(got-truth)/truth > 0.25 {
			t.Errorf("band %v: got %v, truth %v", band, got, truth)
		}
	}
	// Degenerate and out-of-domain intervals.
	if tree.Count(100, 100) != 0 {
		t.Error("empty interval should count 0")
	}
	if tree.Count(200, 100) != 0 {
		t.Error("inverted interval should count 0")
	}
	if tree.Count(600000, 700000) != 0 {
		t.Error("out-of-domain interval should count 0")
	}
	// Clamped interval equals the full domain count.
	full := tree.Count(0, 500000)
	if got := tree.Count(-1e9, 1e9); math.Abs(got-full) > 1e-9 {
		t.Error("clamping should not change the full-domain count")
	}
}

func TestBuild1DQuantiles(t *testing.T) {
	vals := expSalaries(50000, 3)
	tree, err := Build1D(vals, 0, 500000, Options{Height: 5, Epsilon: 1.0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		got := tree.Quantile(q)
		truth := sorted[int(q*float64(len(sorted)))]
		if math.Abs(got-truth)/truth > 0.25 {
			t.Errorf("quantile %v: got %v, truth %v", q, got, truth)
		}
	}
	if tree.Quantile(0) != 0 {
		t.Error("q=0 should return the domain low")
	}
	if tree.Quantile(1) != 500000 {
		t.Error("q=1 should return the domain high")
	}
}

func TestBuild1DValidation(t *testing.T) {
	if _, err := Build1D([]float64{1}, 5, 5, Options{Height: 2, Epsilon: 1}); err == nil {
		t.Error("degenerate domain should error")
	}
	if _, err := Build1D([]float64{1}, math.NaN(), 5, Options{Height: 2, Epsilon: 1}); err == nil {
		t.Error("NaN domain should error")
	}
	if _, err := Build1D([]float64{1}, 0, 5, Options{Height: 2}); err == nil {
		t.Error("zero epsilon should error")
	}
}

func TestBuild1DDefaultsToKD(t *testing.T) {
	tree, err := Build1D([]float64{1, 2, 3}, 0, 10, Options{Height: 2, Epsilon: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Tree().Kind() != "kd" {
		t.Errorf("1-D default kind = %q, want kd", tree.Tree().Kind())
	}
}

func TestReleaseRoundTripPublicAPI(t *testing.T) {
	domain := NewRect(0, 0, 100, 100)
	points := clusteredPoints(5000, domain, 12)
	tree, err := Build(points, domain, Options{Kind: KDHybrid, Height: 4, Epsilon: 0.5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteRelease(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSlab(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := NewRect(10, 10, 45, 80)
	if a, b := tree.Count(q), reopened.Count(q); math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Errorf("reopened count %v != original %v", b, a)
	}
	if reopened.Kind() != tree.Kind() {
		t.Error("kind lost in round trip")
	}
	if _, err := OpenSlab(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk release should error")
	}
}
