// Package median implements the private median methods surveyed in
// Section 6.1 of the paper, which decide the split points of data-dependent
// trees (kd-trees, hybrid trees, Hilbert R-trees):
//
//   - EM:   the exponential mechanism over rank error (Definition 5),
//   - SS:   smooth sensitivity noise calibration (Definition 4, from [20]),
//   - NM:   the noisy-mean surrogate of the record-matching scheme [12],
//   - Cell: the fixed-grid heuristic of [26],
//
// plus the Bernoulli-sampling wrappers (EMs, SSs) of Section 7 and the
// non-private Exact finder that backs the kd-pure and kd-true baselines.
//
// All finders share the Finder interface: given a multiset of values inside
// a known public domain [lo, hi] and a privacy budget eps, return a private
// split point. Given an empty input every finder degrades to a data-
// independent choice, which costs no budget but is charged anyway for
// simplicity (a conservative accounting).
//
// Every built-in finder also implements StreamFinder, the hot-path variant
// the tree builders use: the caller supplies the randomness stream and a
// reusable Scratch, so a build performs no per-median allocation and a
// node's split depends only on its own stream — the property that lets
// subtrees build in parallel yet release byte-identical trees. The
// sort-based finders (EM, SS, Exact) further implement SortedFinder, which
// takes values already sorted: the builders sort once at the root instead
// of once per median.
package median

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"psd/internal/dp"
	"psd/internal/rng"
)

// Finder computes a private median of a set of values within a public
// domain. Implementations consume eps of privacy budget per call.
type Finder interface {
	// Median returns a private estimate of the median of values, which need
	// not be sorted. lo < hi describe the public domain; values outside it
	// are clamped. The result always lies in [lo, hi].
	Median(values []float64, lo, hi, eps float64) (float64, error)

	// Name returns the identifier used in experiment tables (em, ss, nm,
	// cell, em-s, ss-s, exact).
	Name() string
}

// StreamFinder is a Finder whose randomness and working memory can be
// supplied per call. MedianAt must not retain sc, must draw all randomness
// from src, and must be safe for concurrent calls with distinct (src, sc)
// pairs. The tree builders require this interface for parallel
// construction; a Finder without it forces a sequential build.
//
// src travels by value deliberately: a Source is two words, and passing a
// pointer through an interface call would force a heap allocation per
// median (the callee type is opaque to escape analysis). The caller hands
// over a throwaway stream; whatever state is left after the call is
// discarded.
type StreamFinder interface {
	Finder

	// MedianAt is Median drawing randomness from src and using sc for all
	// temporary buffers. values may be overwritten.
	MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error)
}

// SortedFinder is a StreamFinder whose answer depends only on the sorted
// multiset of its (clamped) input. MedianSorted takes that multiset already
// clamped into [lo, hi] and sorted ascending, and never writes to it, so a
// caller that keeps its data sorted — the kd and Hilbert-R builders, which
// sort each axis once at the root — skips the per-call sort. For every
// input, MedianAt(src, sc, v, lo, hi, eps) equals MedianSorted over v
// clamped and sorted. Finders whose answer depends on input order (NM, the
// Sampled wrapper) deliberately do not implement it.
type SortedFinder interface {
	StreamFinder

	// MedianSorted is MedianAt over values that are already clamped into
	// [lo, hi] and sorted ascending. sorted is read, never written.
	MedianSorted(src rng.Source, sc *Scratch, sorted []float64, lo, hi, eps float64) (float64, error)
}

// Streamable reports whether f's MedianAt really is order-independent: f
// must implement StreamFinder, and wrappers must wrap streamable inners.
// A Sampled around a legacy Finder satisfies the StreamFinder interface
// syntactically but falls back to the inner's hidden stream state, so the
// tree builders must gate on this predicate — not a bare type assertion —
// before fanning splits across goroutines.
func Streamable(f Finder) bool {
	if s, ok := f.(*Sampled); ok {
		return Streamable(s.Inner)
	}
	_, ok := f.(StreamFinder)
	return ok
}

// Scratch holds the reusable buffers of the median hot path so repeated
// calls allocate nothing once the buffers have grown to the working-set
// size. The zero value is ready to use. A Scratch is not safe for
// concurrent use — keep one per goroutine.
type Scratch struct {
	coords  []float64 // axis coordinates, filled by the tree builders
	sorted  []float64 // clamped, sorted copy of the input values
	scores  []float64 // exponential-mechanism rank scores
	weights []float64 // exponential-mechanism interval widths
	logw    []float64 // exponential-mechanism log-weight accumulator
	sample  []float64 // Bernoulli-sampled subset (Sampled wrapper)
	idx     []int     // sampled index buffer
}

// Coords returns the scratch coordinate buffer resized to n. Tree builders
// fill it with the axis coordinates of a node's points before calling
// MedianAt; its contents are invalidated by the next median call.
func (sc *Scratch) Coords(n int) []float64 { return growFloats(&sc.coords, n) }

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, n+n/4+16)
	}
	*buf = (*buf)[:n]
	return *buf
}

func checkDomain(lo, hi float64) error {
	if !(lo < hi) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return fmt.Errorf("median: invalid domain [%v, %v]", lo, hi)
	}
	return nil
}

// sortedClamped fills sc.sorted with values clamped into [lo, hi], sorted
// ascending, and returns it.
func (sc *Scratch) sortedClamped(values []float64, lo, hi float64) []float64 {
	out := growFloats(&sc.sorted, len(values))
	for i, v := range values {
		switch {
		case v < lo:
			out[i] = lo
		case v > hi:
			out[i] = hi
		default:
			out[i] = v
		}
	}
	slices.Sort(out)
	return out
}

// lowerMedianIndex returns the 1-based index m of the (lower) median of n
// sorted values; m = ⌈n/2⌉.
func lowerMedianIndex(n int) int { return (n + 1) / 2 }

// Exact returns the true (non-private) median. It exists for the kd-pure
// and kd-true baselines of Section 8.2 and for tests; it offers no privacy.
type Exact struct{}

// Median implements Finder.
func (e Exact) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return e.MedianAt(rng.Source{}, &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder; the exact median consumes no
// randomness, so src is ignored.
func (e Exact) MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	return e.MedianSorted(src, sc, sc.sortedClamped(values, lo, hi), lo, hi, eps)
}

// MedianSorted implements SortedFinder.
func (Exact) MedianSorted(_ rng.Source, _ *Scratch, s []float64, lo, hi, _ float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return (lo + hi) / 2, nil
	}
	return s[lowerMedianIndex(len(s))-1], nil
}

// Name implements Finder.
func (Exact) Name() string { return "exact" }

// EM is the exponential-mechanism median of Definition 5: an output x is
// drawn with probability proportional to |I_k|·exp(-ε/2·|rank(x) − rank(x_m)|)
// over the intervals I_k between consecutive data values, then uniformly
// within the chosen interval. It is ε-differentially private (rank has
// sensitivity 1).
type EM struct {
	Src *rng.Source
}

// Median implements Finder, drawing from the finder's own Src.
func (e *EM) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return e.MedianAt(*e.Src.Split(), &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder.
func (e *EM) MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	return e.MedianSorted(src, sc, sc.sortedClamped(values, lo, hi), lo, hi, eps)
}

// MedianSorted implements SortedFinder.
func (e *EM) MedianSorted(src rng.Source, sc *Scratch, s []float64, lo, hi, eps float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if eps < 0 {
		return 0, fmt.Errorf("median: negative eps %v", eps)
	}
	n := len(s)
	if n == 0 {
		// All ranks are 0 = rank of the median: the mechanism is uniform
		// over the domain.
		return src.UniformIn(lo, hi), nil
	}
	m := lowerMedianIndex(n)
	// Intervals I_k = [x_k, x_{k+1}) for k = 0..n with x_0 = lo, x_{n+1} = hi
	// (1-based data). Interval k has rank k; score is -|k - m|.
	scores := growFloats(&sc.scores, n+1)
	weights := growFloats(&sc.weights, n+1)
	logw := growFloats(&sc.logw, n+1)
	for k := 0; k <= n; k++ {
		left := lo
		if k >= 1 {
			left = s[k-1]
		}
		right := hi
		if k < n {
			right = s[k]
		}
		scores[k] = -math.Abs(float64(k - m))
		weights[k] = right - left
	}
	k, err := dp.ExpMechanismBuf(&src, scores, weights, eps, 1, logw)
	if err != nil {
		// All intervals can have zero width (every value identical and equal
		// to a domain endpoint, say); any point of the collapsed support is
		// the right answer.
		return s[m-1], nil
	}
	left := lo
	if k >= 1 {
		left = s[k-1]
	}
	right := hi
	if k < n {
		right = s[k]
	}
	if right <= left {
		return left, nil
	}
	return src.UniformIn(left, right), nil
}

// Name implements Finder.
func (e *EM) Name() string { return "em" }

// SS is the smooth-sensitivity median of Definition 4 (Nissim,
// Raskhodnikova and Smith [20]): it releases x_m + (2σ_s/ε)·Lap(1) where
// σ_s is the ξ-smooth sensitivity of the median. It satisfies the slightly
// weaker (ε, δ)-differential privacy.
type SS struct {
	Src *rng.Source
	// Delta is the δ of (ε, δ)-DP; the paper's experiments use 1e-4.
	Delta float64
}

// Median implements Finder, drawing from the finder's own Src.
func (s *SS) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return s.MedianAt(*s.Src.Split(), &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder.
func (s *SS) MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	return s.MedianSorted(src, sc, sc.sortedClamped(values, lo, hi), lo, hi, eps)
}

// MedianSorted implements SortedFinder.
func (s *SS) MedianSorted(src rng.Source, _ *Scratch, v []float64, lo, hi, eps float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if len(v) == 0 {
		return src.UniformIn(lo, hi), nil
	}
	xi, err := dp.SmoothXi(eps, s.Delta)
	if err != nil {
		return 0, err
	}
	sigma := SmoothSensitivity(v, lo, hi, xi)
	m := lowerMedianIndex(len(v))
	out := v[m-1] + (2*sigma/eps)*src.Laplace(1)
	return clamp(out, lo, hi), nil
}

// Name implements Finder.
func (s *SS) Name() string { return "ss" }

// SmoothSensitivity computes σ_s(median) of Definition 4 over the sorted
// values v within domain [lo, hi]:
//
//	σ_s = max_{0≤k≤n} e^{-kξ} · max_{0≤t≤k+1} (x_{m+t} − x_{m+t−k−1})
//
// with x_i := lo for i < 1 and x_i := hi for i > n (1-based indexing).
// The scan over k stops as soon as e^{-kξ}·(hi−lo) cannot beat the current
// maximum, which keeps the common case far below the worst-case O(n²).
func SmoothSensitivity(v []float64, lo, hi, xi float64) float64 {
	n := len(v)
	m := lowerMedianIndex(n)
	M := hi - lo
	x := func(i int) float64 { // 1-based with boundary clamping
		if i < 1 {
			return lo
		}
		if i > n {
			return hi
		}
		return v[i-1]
	}
	best := 0.0
	for k := 0; k <= n; k++ {
		decay := math.Exp(-float64(k) * xi)
		if decay*M <= best {
			break // no later k can improve: the local term is at most M
		}
		local := 0.0
		for t := 0; t <= k+1; t++ {
			if d := x(m+t) - x(m+t-k-1); d > local {
				local = d
			}
		}
		if s := decay * local; s > best {
			best = s
		}
	}
	return best
}

// NM is the noisy-mean surrogate of Inan et al. [12]: a private mean
// computed as (noisy sum)/(noisy count), used in place of the median. The
// sum (of values shifted to [0, M]) has sensitivity M and the count has
// sensitivity 1; the budget is split evenly between them. It is fast but
// gives no guarantee of being close to the median (Section 6.1).
type NM struct {
	Src *rng.Source
}

// Median implements Finder, drawing from the finder's own Src.
func (nm *NM) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return nm.MedianAt(*nm.Src.Split(), &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder.
func (nm *NM) MedianAt(src rng.Source, _ *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if eps <= 0 {
		return (lo + hi) / 2, nil
	}
	M := hi - lo
	var sum float64
	for _, v := range values {
		sum += clamp(v, lo, hi) - lo
	}
	half := eps / 2
	noisySum := sum + src.Laplace(M/half)
	noisyCount := float64(len(values)) + src.Laplace(1/half)
	if noisyCount < 1 {
		// Too little signal to divide by; fall back to the domain midpoint,
		// which is what an (almost) empty node deserves.
		return (lo + hi) / 2, nil
	}
	return clamp(lo+noisySum/noisyCount, lo, hi), nil
}

// Name implements Finder.
func (nm *NM) Name() string { return "nm" }

// Cell is the fixed-resolution-grid heuristic of Xiao et al. [26]: lay a
// uniform grid over the domain, release a noisy count per cell (sensitivity
// 1), and read the median off the noisy cumulative distribution with linear
// interpolation inside the crossing cell.
type Cell struct {
	Src *rng.Source
	// Cells is the number of grid cells; the Figure 4 experiment uses a
	// cell length of 2^10 over a domain of 2^26, i.e. 2^16 cells.
	Cells int
}

// Median implements Finder, drawing from the finder's own Src.
func (c *Cell) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return c.MedianAt(*c.Src.Split(), &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder.
func (c *Cell) MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if c.Cells < 1 {
		return 0, fmt.Errorf("median: cell method needs at least 1 cell, got %d", c.Cells)
	}
	width := (hi - lo) / float64(c.Cells)
	counts := growFloats(&sc.scores, c.Cells)
	clear(counts)
	for _, v := range values {
		idx := int((clamp(v, lo, hi) - lo) / width)
		if idx >= c.Cells {
			idx = c.Cells - 1
		}
		counts[idx]++
	}
	var total float64
	for i := range counts {
		counts[i] += src.Laplace(1 / eps)
		if counts[i] < 0 {
			counts[i] = 0 // negative mass would make the CDF non-monotone
		}
		total += counts[i]
	}
	if total <= 0 {
		return (lo + hi) / 2, nil
	}
	target := total / 2
	var cum float64
	for i, cnt := range counts {
		if cum+cnt >= target {
			frac := 0.5
			if cnt > 0 {
				frac = (target - cum) / cnt
			}
			return lo + (float64(i)+frac)*width, nil
		}
		cum += cnt
	}
	return hi, nil
}

// Name implements Finder.
func (c *Cell) Name() string { return "cell" }

// Sampled wraps a Finder with Bernoulli subsampling (Section 7): the inner
// finder runs on a Rate-sample of the data with the amplified budget that
// keeps the overall release eps-DP. The exact Kasiviswanathan et al.
// amplification bound is used (see dp.TightSampledBudget); at Rate = 1% a
// per-call target of ε = 0.01 turns into an inner budget ≈ 0.70, the
// "about 50 times larger" effect the paper reports.
type Sampled struct {
	Inner Finder
	Src   *rng.Source
	// Rate is the Bernoulli sampling probability in (0, 1].
	Rate float64
}

// Median implements Finder, drawing from the finder's own Src.
func (s *Sampled) Median(values []float64, lo, hi, eps float64) (float64, error) {
	var sc Scratch
	return s.MedianAt(*s.Src.Split(), &sc, values, lo, hi, eps)
}

// MedianAt implements StreamFinder. The sampling draw and the inner
// mechanism share src, so one stream fully determines the call. An Inner
// that is itself a StreamFinder keeps the call allocation-free and
// order-independent; a plain Finder falls back to its own Median (and its
// own internal randomness).
func (s *Sampled) MedianAt(src rng.Source, sc *Scratch, values []float64, lo, hi, eps float64) (float64, error) {
	if err := checkDomain(lo, hi); err != nil {
		return 0, err
	}
	if s.Rate <= 0 || s.Rate > 1 {
		return 0, fmt.Errorf("median: sampling rate %v outside (0,1]", s.Rate)
	}
	inner, err := dp.TightSampledBudget(eps, s.Rate)
	if err != nil {
		return 0, err
	}
	sc.idx = src.SampleBernoulliInto(sc.idx, len(values), s.Rate)
	sample := growFloats(&sc.sample, len(sc.idx))
	for i, j := range sc.idx {
		sample[i] = values[j]
	}
	if sf, ok := s.Inner.(StreamFinder); ok {
		return sf.MedianAt(src, sc, sample, lo, hi, inner)
	}
	return s.Inner.Median(sample, lo, hi, inner)
}

// Name implements Finder.
func (s *Sampled) Name() string { return s.Inner.Name() + "-s" }

// RankError returns the normalized rank error of a proposed median value
// against the data: |rank(v) − n/2| / n ∈ [0, 1]. Values outside the data
// range score the worst-case 1 (the paper's "100% relative error" for
// medians that fall outside [x_1, x_n]). The data need not be sorted.
func RankError(values []float64, v float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, values)
	slices.Sort(s)
	if v < s[0] || v > s[n-1] {
		return 1
	}
	rank := sort.SearchFloat64s(s, v)
	return math.Abs(float64(rank)-float64(n)/2) / float64(n)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
