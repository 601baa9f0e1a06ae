// Package core implements the paper's primary contribution: private spatial
// decompositions (PSDs). A PSD is a complete fanout-4 tree over a 2-D
// domain whose node rectangles describe a hierarchical partition of space
// and whose node counts are released under ε-differential privacy.
//
// The package provides every member of the paper's design space:
//
//   - Quadtree (Section 3.3): data-independent midpoint splits; the whole
//     budget goes to counts.
//   - KD (Section 6): data-dependent private-median splits, built as a
//     binary kd-tree flattened to fanout 4 (Section 6.2, "flattening the
//     kd-tree"); the budget is split between medians and counts.
//   - Hybrid (Section 3.2): kd splits for the first SwitchLevel flattened
//     levels, then quadtree (midpoint) splits below.
//   - HilbertR (Sections 3.2-3.3): a one-dimensional kd-tree over Hilbert
//     values whose node rectangles are the data-independent bounding boxes
//     of each node's Hilbert index range.
//   - KDCell (Xiao et al. [26]): split points read off a fixed-resolution
//     noisy grid released once; the grid is the only structural spend.
//   - KDNoisyMean (Inan et al. [12]): kd splits by the noisy-mean surrogate.
//
// All variants share the same count pipeline: per-level Laplace budgets from
// a budget.Strategy (uniform, geometric, leaf-only, ...), optional OLS
// post-processing (Section 5), optional pruning (Section 7), and the
// canonical range-query algorithm with the uniformity assumption
// (Section 4.1).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"psd/internal/budget"
	"psd/internal/dp"
	"psd/internal/geom"
	"psd/internal/median"
	"psd/internal/rng"
	"psd/internal/tree"
)

// Kind selects the decomposition family.
type Kind int

// The decomposition families of the paper's design space.
const (
	Quadtree Kind = iota
	KD
	Hybrid
	HilbertR
	KDCell
	KDNoisyMean
	// PrivTree is the adaptive decomposition of Zhang et al. (SIGMOD 2016):
	// midpoint (quadtree) geometry whose recursion depth is data-adaptive —
	// a node splits while its depth-decayed noisy count exceeds a threshold,
	// at a privacy cost independent of the depth. Internally it is a
	// complete quadtree of the configured Height in which non-split
	// subtrees are structurally present but unpublished, so the release,
	// slab and batch paths serve it unchanged.
	PrivTree
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Quadtree:
		return "quadtree"
	case KD:
		return "kd"
	case Hybrid:
		return "kd-hybrid"
	case HilbertR:
		return "hilbert-r"
	case KDCell:
		return "kd-cell"
	case KDNoisyMean:
		return "kd-noisymean"
	case PrivTree:
		return "privtree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DataDependent reports whether the kind spends budget on structure.
func (k Kind) DataDependent() bool { return k != Quadtree }

// Config controls a Build. The zero value is not usable: Height and Epsilon
// must be set. Every other field has a sensible default (see field docs).
type Config struct {
	// Kind selects the decomposition family. Default Quadtree.
	Kind Kind

	// Height is the fanout-4 tree height h; the tree has h+1 count levels
	// and 4^h leaves. Required.
	Height int

	// Epsilon is the total privacy budget ε for the release. Required.
	// Set NonPrivate to build the exact baselines instead.
	Epsilon float64

	// Strategy allocates the count budget across levels. Default
	// budget.Geometric{} (the paper's recommendation).
	Strategy budget.Strategy

	// CountFraction is the share of ε given to counts; the rest funds the
	// structure (medians or the kd-cell grid). Defaults: 1.0 for quadtrees,
	// 0.7 for every data-dependent kind (the εcount = 0.7ε / εmedian = 0.3ε
	// division Section 8.2 settles on). Must be in (0, 1].
	CountFraction float64

	// Median finds private split points for data-dependent kinds. Default:
	// the exponential mechanism (the paper's recommendation), seeded from
	// Seed. KDNoisyMean ignores this and always uses the noisy mean.
	Median median.Finder

	// SwitchLevel is the number of data-dependent flattened levels ℓ of a
	// Hybrid tree before switching to midpoint splits. Default: Height/2
	// (the paper found switching about half-way down works best). Ignored
	// by other kinds.
	SwitchLevel int

	// PostProcess runs the OLS post-processing of Section 5. Default false;
	// the presets in psd.go turn it on where the paper does.
	PostProcess bool

	// PruneThreshold is the Section 7 pruning threshold m: after
	// post-processing, subtrees under nodes with estimated count below m
	// are cut. Zero disables pruning.
	PruneThreshold float64

	// Noise perturbs counts. Default: the Laplace mechanism seeded from
	// Seed.
	Noise dp.NoiseSource

	// Seed makes the build deterministic. Two builds with equal Config and
	// data produce identical trees.
	Seed int64

	// HilbertOrder is the curve order for HilbertR (default 18, the paper's
	// choice; Section 8.2 found orders 16-24 equivalent).
	HilbertOrder uint

	// Lambda is the PrivTree splitting-noise scale λ (PrivTree only). Zero
	// calibrates it from the structure budget — λ = (2β−1)/((β−1)·ε_struct)
	// with β = 4, the smallest scale Zhang et al.'s Theorem 1 permits — so
	// the decomposition consumes exactly ε_struct. An explicit positive
	// Lambda overrides the calibration; StructureCost then reports the ε
	// that scale actually consumes, which may differ from ε_struct.
	Lambda float64

	// Theta is the PrivTree split threshold θ (PrivTree only): a node
	// splits while its depth-decayed noisy count exceeds it. θ spends no
	// privacy; the default 0 is the paper's choice.
	Theta float64

	// CellSize is the kd-cell grid cell edge length in domain units
	// (default: the paper's 0.01 scaled to the domain — domain width/2182,
	// matching 0.01 degrees over the TIGER bounding box — capped so the
	// grid stays within grid.MaxCells).
	CellSize float64

	// NonPrivate builds the exact baselines of Section 8.2: no count noise
	// and (for data-dependent kinds) exact medians. Epsilon is ignored.
	// With TrueCountsOnly unset this is "kd-pure"/quad with exact counts;
	// see TrueMedians for "kd-true".
	NonPrivate bool

	// TrueMedians uses exact medians but keeps count noise — the paper's
	// kd-true baseline ("exact medians but noisy counts"). The whole ε then
	// funds counts.
	TrueMedians bool

	// Parallelism bounds the number of worker goroutines Build uses across
	// all phases (subtree construction, the noisy-count release, OLS
	// post-processing and pruning). Zero means one worker per available
	// core (runtime.GOMAXPROCS); 1 forces a fully sequential build. The
	// released tree is byte-identical at every setting for a fixed Seed.
	// Negative values are an error.
	Parallelism int
}

// withDefaults returns a copy of c with defaults filled in, or an error if
// required fields are missing or inconsistent.
func (c Config) withDefaults(domain geom.Rect) (Config, error) {
	if c.Height < 0 {
		return c, fmt.Errorf("core: negative height %d", c.Height)
	}
	if c.Height > 13 {
		return c, fmt.Errorf("core: height %d too large (4^%d leaves)", c.Height, c.Height)
	}
	if !c.NonPrivate {
		if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
			return c, fmt.Errorf("core: invalid epsilon %v", c.Epsilon)
		}
	}
	if domain.Empty() {
		return c, fmt.Errorf("core: empty domain %v", domain)
	}
	if c.Parallelism < 0 {
		return c, fmt.Errorf("core: negative parallelism %d", c.Parallelism)
	}
	if c.Kind == PrivTree {
		if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
			return c, fmt.Errorf("core: invalid privtree lambda %v", c.Lambda)
		}
		if math.IsNaN(c.Theta) || math.IsInf(c.Theta, 0) {
			return c, fmt.Errorf("core: invalid privtree theta %v", c.Theta)
		}
		if c.PruneThreshold > 0 {
			return c, fmt.Errorf("core: privtree does not support PruneThreshold " +
				"(its adaptive stopping rule is the pruning; tune Theta instead)")
		}
		// OLS post-processing models one Laplace release per level; PrivTree
		// publishes a single release over the adaptive leaf partition, so the
		// per-level model does not apply and the flag is ignored. (Leaving it
		// set would also mark every node usable, including the unpublished
		// interior whose estimate is zero.)
		c.PostProcess = false
	} else if c.Lambda != 0 || c.Theta != 0 {
		return c, fmt.Errorf("core: Lambda/Theta apply only to PrivTree (kind %v)", c.Kind)
	}
	if c.Strategy == nil {
		c.Strategy = budget.Geometric{}
	}
	if c.CountFraction == 0 {
		if c.Kind.DataDependent() && !c.NonPrivate && !c.TrueMedians {
			c.CountFraction = 0.7
		} else {
			c.CountFraction = 1.0
		}
	}
	if c.CountFraction < 0 || c.CountFraction > 1 {
		return c, fmt.Errorf("core: count fraction %v outside (0,1]", c.CountFraction)
	}
	if !c.Kind.DataDependent() || c.NonPrivate || c.TrueMedians {
		c.CountFraction = 1.0
	}
	if c.Median == nil {
		c.Median = &median.EM{Src: rng.New(c.Seed ^ 0x6d656469616e)}
	}
	if c.NonPrivate || c.TrueMedians {
		c.Median = median.Exact{}
	}
	if c.Kind == KDNoisyMean && !c.NonPrivate && !c.TrueMedians {
		c.Median = &median.NM{Src: rng.New(c.Seed ^ 0x6e6d)}
	}
	if c.Kind == Hybrid && c.SwitchLevel == 0 {
		c.SwitchLevel = (c.Height + 1) / 2
	}
	if c.SwitchLevel < 0 || c.SwitchLevel > c.Height {
		return c, fmt.Errorf("core: switch level %d outside [0,%d]", c.SwitchLevel, c.Height)
	}
	if c.Noise == nil {
		if c.NonPrivate {
			c.Noise = dp.ZeroNoise{}
		} else {
			// A StreamNoise source: node i draws from stream i, so the
			// release is identical however the level sweep is scheduled.
			c.Noise = dp.NewSeededLaplace(c.Seed ^ 0x636f756e74)
		}
	}
	if c.HilbertOrder == 0 {
		c.HilbertOrder = 18
	}
	if c.CellSize == 0 {
		c.CellSize = domain.Width() / 2182 // ≈ 0.01 degrees on the TIGER box
	}
	if c.CellSize < 0 {
		return c, fmt.Errorf("core: negative cell size %v", c.CellSize)
	}
	return c, nil
}

// BuildStats reports what a Build did.
type BuildStats struct {
	// Duration is the wall-clock build time.
	Duration time.Duration
	// MedianCalls counts private median computations.
	MedianCalls int
	// PrunedSubtrees counts nodes whose descendants were cut.
	PrunedSubtrees int
	// Points is the number of data points indexed.
	Points int
}

// PSD is a built private spatial decomposition.
type PSD struct {
	kind    Kind
	arena   *tree.Tree
	domain  geom.Rect
	epsilon float64
	// countEps[i] is the count budget of level i (leaves are level 0).
	countEps []float64
	// structEps is the total per-path structural spend (medians or grid).
	structEps     float64
	postProcessed bool
	pruneAt       float64
	stats         BuildStats
	// effLeaves is the number of effective leaf regions (actual leaves plus
	// pruned subtree roots); Seal hands it to the slab, whose LeafRegions
	// pre-sizes its output with it.
	effLeaves int
	// medianCalls accumulates across build workers; Stats() reads the
	// settled value.
	medianCalls atomic.Int64
	// sealOnce/sealed cache the flat slab every query answers through
	// (Sealed); the arena remains the source of truth.
	sealOnce sync.Once
	sealed   *Slab
}

// Kind returns the decomposition family.
func (p *PSD) Kind() Kind { return p.kind }

// Domain returns the indexed domain rectangle.
func (p *PSD) Domain() geom.Rect { return p.domain }

// Height returns the tree height.
func (p *PSD) Height() int { return p.arena.Height() }

// Fanout returns the tree fanout (always 4; Section 6.2 flattens kd-trees
// so every PSD compares at equal fanout).
func (p *PSD) Fanout() int { return p.arena.Fanout() }

// Len returns the number of tree nodes.
func (p *PSD) Len() int { return p.arena.Len() }

// Stats returns build statistics.
func (p *PSD) Stats() BuildStats { return p.stats }

// SetBuildDuration records the wall-clock build time observed by the
// caller. Build itself never reads a clock — core must stay free of
// wall-clock inputs so rebuilds are byte-identical — so the timing
// observation lives with whoever invoked Build.
func (p *PSD) SetBuildDuration(d time.Duration) { p.stats.Duration = d }

// CountBudgets returns a copy of the per-level count budgets ε_i (leaves
// first).
func (p *PSD) CountBudgets() []float64 {
	out := make([]float64, len(p.countEps))
	copy(out, p.countEps)
	return out
}

// PrivacyCost returns the total ε consumed along any root-to-leaf path —
// the privacy guarantee of the release (Section 6.2): the structural spend
// plus the sum of per-level count budgets.
func (p *PSD) PrivacyCost() float64 {
	var sum float64
	for _, e := range p.countEps {
		sum += e
	}
	return sum + p.structEps
}

// StructureCost returns the per-path ε spent on the tree structure.
func (p *PSD) StructureCost() float64 { return p.structEps }

// PostProcessed reports whether OLS post-processing ran.
func (p *PSD) PostProcessed() bool { return p.postProcessed }

// Arena exposes the underlying complete tree. It is intended for the
// evaluation harness and tools in this module; mutating it invalidates the
// PSD.
func (p *PSD) Arena() *tree.Tree { return p.arena }
