package median

import (
	"math"
	"slices"
	"testing"

	"psd/internal/rng"
)

// streamFinders enumerates the built-in finders through their hot-path
// interface. Every one must satisfy StreamFinder or parallel builds would
// silently degrade to sequential.
func streamFinders() map[string]StreamFinder {
	return map[string]StreamFinder{
		"exact": Exact{},
		"em":    &EM{},
		"ss":    &SS{Delta: 1e-4},
		"nm":    &NM{},
		"cell":  &Cell{Cells: 64},
		"em-s":  &Sampled{Inner: &EM{}, Rate: 0.5},
	}
}

type legacyOnly struct{ Exact }

// Median-only shadow: legacyOnly deliberately hides MedianAt.
func (legacyOnly) MedianAt() {}

func TestStreamable(t *testing.T) {
	for name, f := range streamFinders() {
		if !Streamable(f) {
			t.Errorf("%s: built-in finder should be streamable", name)
		}
	}
	var legacy Finder = legacyOnly{}
	if _, ok := legacy.(StreamFinder); ok {
		t.Fatal("test fixture unexpectedly implements StreamFinder")
	}
	if Streamable(legacy) {
		t.Error("legacy finder reported streamable")
	}
	if Streamable(&Sampled{Inner: legacy, Rate: 0.5}) {
		t.Error("Sampled around a legacy inner must not be streamable")
	}
	if !Streamable(&Sampled{Inner: &Sampled{Inner: &EM{}, Rate: 0.5}, Rate: 0.5}) {
		t.Error("nested streamable Sampled should be streamable")
	}
}

// MedianAt must be a pure function of (stream, inputs): same stream, same
// answer, regardless of scratch reuse or interleaving with other calls.
func TestMedianAtStreamDeterminism(t *testing.T) {
	vals := make([]float64, 500)
	seedSrc := rng.New(5)
	for i := range vals {
		vals[i] = seedSrc.UniformIn(0, 100)
	}
	for name, f := range streamFinders() {
		var sc1, sc2 Scratch
		in1 := append([]float64(nil), vals...)
		a, err := f.MedianAt(rng.At(99, 7, 1), &sc1, in1, 0, 100, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Interleave an unrelated call on the second scratch, then replay
		// the original stream: the answer must not move.
		if _, err := f.MedianAt(rng.At(1, 2, 3), &sc2, append([]float64(nil), vals...), 0, 100, 0.5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f.MedianAt(rng.At(99, 7, 1), &sc2, append([]float64(nil), vals...), 0, 100, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s: replayed stream gave %v then %v", name, a, b)
		}
		if a < 0 || a > 100 {
			t.Errorf("%s: median %v outside domain", name, a)
		}
	}
}

// The whole point of Scratch: once warm, the median hot path allocates
// nothing per call.
func TestMedianAtAllocationFree(t *testing.T) {
	vals := make([]float64, 2048)
	seedSrc := rng.New(6)
	for i := range vals {
		vals[i] = seedSrc.UniformIn(0, 1)
	}
	in := make([]float64, len(vals))
	for name, f := range streamFinders() {
		var sc Scratch
		call := func() {
			copy(in, vals)
			if _, err := f.MedianAt(rng.At(42, 11, 2), &sc, in, 0, 1, 0.4); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm the scratch buffers
		if avg := testing.AllocsPerRun(50, call); avg != 0 {
			t.Errorf("%s: %v allocs/op on a warm scratch, want 0", name, avg)
		}
	}
}

// sortedFinders enumerates the finders whose answer depends only on the
// sorted input, the ones the builders feed presorted data.
func sortedFinders() map[string]SortedFinder {
	return map[string]SortedFinder{
		"exact": Exact{},
		"em":    &EM{},
		"ss":    &SS{Delta: 1e-4},
	}
}

// The order-dependent finders must not claim the sorted fast path: a
// builder that fed them presorted data would change their releases.
func TestSortedFinderMembership(t *testing.T) {
	for name, f := range streamFinders() {
		_, sorted := f.(SortedFinder)
		want := name == "exact" || name == "em" || name == "ss"
		if sorted != want {
			t.Errorf("%s: SortedFinder = %v, want %v", name, sorted, want)
		}
	}
}

// MedianSorted over the clamped, sorted input must return exactly what
// MedianAt returns over the raw input (bit for bit), and must not write to
// its input.
func TestMedianSortedMatchesMedianAt(t *testing.T) {
	src := rng.New(12)
	for _, n := range []int{0, 1, 2, 3, 4, 7, 64, 513} {
		raw := make([]float64, n)
		for i := range raw {
			switch i % 5 {
			case 0:
				raw[i] = -3 // clamped up to lo
			case 1:
				raw[i] = 12 // clamped down to hi
			case 2:
				raw[i] = 5 // duplicates
			default:
				raw[i] = src.UniformIn(-2, 11)
			}
		}
		sorted := make([]float64, n)
		for i, v := range raw {
			sorted[i] = min(max(v, 0), 10)
		}
		slices.Sort(sorted)
		frozen := slices.Clone(sorted)
		for name, f := range sortedFinders() {
			var sc1, sc2 Scratch
			want, err := f.MedianAt(rng.At(3, uint64(n), 1), &sc1, slices.Clone(raw), 0, 10, 0.7)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			got, err := f.MedianSorted(rng.At(3, uint64(n), 1), &sc2, sorted, 0, 10, 0.7)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s n=%d: MedianSorted %v, MedianAt %v", name, n, got, want)
			}
			if !slices.Equal(sorted, frozen) {
				t.Fatalf("%s n=%d: MedianSorted wrote to its input", name, n)
			}
		}
	}
}

// The sorted entry point is as allocation-free as MedianAt once the
// scratch is warm.
func TestMedianSortedAllocationFree(t *testing.T) {
	vals := make([]float64, 2048)
	seedSrc := rng.New(6)
	for i := range vals {
		vals[i] = seedSrc.UniformIn(0, 1)
	}
	slices.Sort(vals)
	for name, f := range sortedFinders() {
		var sc Scratch
		call := func() {
			if _, err := f.MedianSorted(rng.At(42, 11, 2), &sc, vals, 0, 1, 0.4); err != nil {
				t.Fatal(err)
			}
		}
		call() // warm the scratch buffers
		if avg := testing.AllocsPerRun(50, call); avg != 0 {
			t.Errorf("%s: %v allocs/op on a warm scratch, want 0", name, avg)
		}
	}
}

func BenchmarkEMMedianLegacy(b *testing.B) {
	vals := make([]float64, 4096)
	src := rng.New(7)
	for i := range vals {
		vals[i] = src.UniformIn(0, 1)
	}
	e := &EM{Src: rng.New(8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Median(vals, 0, 1, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMMedianAtScratch(b *testing.B) {
	vals := make([]float64, 4096)
	src := rng.New(7)
	for i := range vals {
		vals[i] = src.UniformIn(0, 1)
	}
	in := make([]float64, len(vals))
	e := &EM{}
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(in, vals)
		if _, err := e.MedianAt(rng.At(1, uint64(i), 0), &sc, in, 0, 1, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
