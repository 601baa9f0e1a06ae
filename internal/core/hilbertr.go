package core

import (
	"math"
	"slices"

	"psd/internal/geom"
	"psd/internal/hilbert"
	"psd/internal/median"
	"psd/internal/rng"
	"psd/internal/tree"
)

// buildHilbertTree constructs the private Hilbert R-tree of Sections
// 3.2-3.3: points are mapped to their Hilbert values, a one-dimensional
// kd-tree over the values is built with private median splits (flattened to
// fanout 4 like the 2-D kd-trees), and each node's rectangle is the exact
// bounding box of its Hilbert index range — a data-independent function of
// the range, so rectangles cost no budget beyond the medians that chose the
// ranges.
//
// Per root-to-leaf path, each flattened level spends two median budgets
// (the value split plus the relevant sub-split), identical to the kd
// accounting. Like the partition-tree builder, subtrees fan out across a
// worker pool with per-node randomness streams, so the parallel build
// releases the same tree as a sequential one.
func buildHilbertTree(arena *tree.Tree, pts []geom.Point, domain geom.Rect, cfg Config, epsStruct float64, p *PSD, workers int) error {
	mapper, err := hilbert.NewMapper(cfg.HilbertOrder, domain)
	if err != nil {
		return err
	}
	vals := make([]float64, len(pts))
	for i, pt := range pts {
		// Hilbert indices up to 4^31 are exactly representable in float64
		// only through order 26; the default order 18 is far inside that.
		vals[i] = float64(mapper.Index(pt))
	}
	hb := &hilbertBuilder{cfg: cfg, psd: p, domain: domain, mapper: mapper, arena: arena}
	if median.Streamable(cfg.Median) {
		hb.sf, _ = cfg.Median.(median.StreamFinder)
		hb.sorted, _ = cfg.Median.(median.SortedFinder)
	}
	if hb.sorted != nil {
		// Sort once: every node's values are then a contiguous sorted
		// sub-range, split by binary search.
		slices.Sort(vals)
	}
	if cfg.Height > 0 && epsStruct > 0 {
		hb.epsPer = epsStruct / float64(2*cfg.Height)
		p.structEps = epsStruct
	}
	total := float64(mapper.Curve().NumCells())

	rootRect, err := hb.rect(0, total)
	if err != nil {
		return err
	}
	arena.Nodes[0].Rect = rootRect

	if hb.sf == nil {
		workers = 1
	}
	return buildFrontier(arena, hilbertSet{vals: vals, lo: 0, hi: total}, workers, hb.expandNode)
}

// hilbertSet is the Hilbert builder's view of a node: the values in its
// range [lo, hi).
type hilbertSet struct {
	vals   []float64
	lo, hi float64
}

func (s hilbertSet) size() int { return len(s.vals) }

type hilbertBuilder struct {
	cfg    Config
	sf     median.StreamFinder // nil forces the sequential legacy path
	sorted median.SortedFinder // non-nil: values are sorted once at the root
	epsPer float64
	psd    *PSD
	domain geom.Rect
	mapper *hilbert.Mapper
	arena  *tree.Tree
}

// rect maps a half-open Hilbert value interval to the bounding box of the
// integer indices it contains.
func (hb *hilbertBuilder) rect(lo, hi float64) (geom.Rect, error) {
	// The node owns integer Hilbert values in [ceil(lo), ceil(hi)-1].
	a := uint64(math.Ceil(lo))
	bf := math.Ceil(hi) - 1
	if bf < float64(a) {
		// No whole index falls in the interval: a degenerate, zero-area
		// rectangle that never matches queries (the node is empty).
		corner := geom.Point{X: hb.domain.Lo.X, Y: hb.domain.Lo.Y}
		return geom.Rect{Lo: corner, Hi: corner}, nil
	}
	return hb.mapper.RangeBounds(a, uint64(bf))
}

// expandNode performs one flattened fanout-4 expansion over a value range:
// m1 over [lo,hi), then m2 over [lo,m1) and m3 over [m1,hi).
func (hb *hilbertBuilder) expandNode(idx, _ int, s hilbertSet, sc *median.Scratch) ([4]hilbertSet, error) {
	var out [4]hilbertSet
	m1, err := hb.splitValue(idx, 0, s.vals, s.lo, s.hi, sc)
	if err != nil {
		return out, err
	}
	left, right := hb.cut(s.vals, m1)
	m2, err := hb.splitValue(idx, 1, left, s.lo, m1, sc)
	if err != nil {
		return out, err
	}
	m3, err := hb.splitValue(idx, 2, right, m1, s.hi, sc)
	if err != nil {
		return out, err
	}
	v0, v1 := hb.cut(left, m2)
	v2, v3 := hb.cut(right, m3)

	bounds := [5]float64{s.lo, m2, m1, m3, s.hi}
	kids := [4][]float64{v0, v1, v2, v3}
	cs := hb.arena.ChildStart(idx)
	for j := range out {
		r, rerr := hb.rect(bounds[j], bounds[j+1])
		if rerr != nil {
			return out, rerr
		}
		hb.arena.Nodes[cs+j].Rect = r
		out[j] = hilbertSet{vals: kids[j], lo: bounds[j], hi: bounds[j+1]}
	}
	return out, nil
}

// cut divides vals into the values < split and the rest: by binary search
// when the values are sorted, otherwise by partitioning them in place.
func (hb *hilbertBuilder) cut(vals []float64, split float64) ([]float64, []float64) {
	var mid int
	if hb.sorted != nil {
		mid, _ = slices.BinarySearch(vals, split)
	} else {
		mid = partitionValues(vals, split)
	}
	return vals[:mid], vals[mid:]
}

// splitValue runs the configured median finder over one-dimensional Hilbert
// values, clamping the result into (lo, hi) so child intervals stay nested.
// The randomness stream is keyed by (node, slot), exactly as in the 2-D
// builder.
func (hb *hilbertBuilder) splitValue(node, slot int, vals []float64, lo, hi float64, sc *median.Scratch) (float64, error) {
	if hi <= lo {
		return lo, nil
	}
	hb.psd.medianCalls.Add(1)
	var m float64
	var err error
	src := rng.At(hb.cfg.Seed, medianStream(node, slot), saltMedian)
	switch {
	case hb.sorted != nil:
		// A sorted sub-range inside [lo, hi): already clamped and sorted.
		m, err = hb.sorted.MedianSorted(src, sc, vals, lo, hi, hb.epsPer)
	case hb.sf != nil:
		buf := sc.Coords(len(vals))
		copy(buf, vals)
		m, err = hb.sf.MedianAt(src, sc, buf, lo, hi, hb.epsPer)
	default:
		m, err = hb.cfg.Median.Median(vals, lo, hi, hb.epsPer)
	}
	if err != nil {
		return 0, err
	}
	if m < lo {
		m = lo
	}
	if m > hi {
		m = hi
	}
	return m, nil
}

// partitionValues reorders vals so entries < split come first, returning
// their count.
func partitionValues(vals []float64, split float64) int {
	i, j := 0, len(vals)
	for i < j {
		if vals[i] < split {
			i++
			continue
		}
		j--
		vals[i], vals[j] = vals[j], vals[i]
	}
	return i
}
