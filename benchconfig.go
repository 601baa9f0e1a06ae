package psd

import "runtime"

// BuildBenchConfig names one representative build configuration of the
// performance benchmarks. bench_test.go (the CI bench smoke) and
// cmd/psdbench's JSON perf report both measure exactly BuildBenchConfigs,
// so the two views of the perf trajectory cannot drift apart.
type BuildBenchConfig struct {
	// Name labels benchmark rows ("quad-opt-h10").
	Name string
	// Kind and Height define the tree being built (ε = 0.5, default
	// options otherwise).
	Kind   Kind
	Height int
}

// BuildBenchConfigs returns the benchmarked build configurations: the
// paper's best all-round quadtree at full height, PrivTree, and the
// median-split kinds whose private-median path is the construction
// bottleneck. kd-h8, kd-hybrid-h8 and hilbert-h6 take the sort-once path
// (each axis, or the Hilbert values, sorted once at the root; see
// median.SortedFinder); quad-opt-h10 and privtree-h8 split at midpoints.
func BuildBenchConfigs() []BuildBenchConfig {
	return []BuildBenchConfig{
		{Name: "quad-opt-h10", Kind: QuadtreeKind, Height: 10},
		{Name: "kd-h8", Kind: KDTree, Height: 8},
		{Name: "kd-hybrid-h8", Kind: KDHybrid, Height: 8},
		{Name: "hilbert-h6", Kind: HilbertRTree, Height: 6},
		{Name: "privtree-h8", Kind: PrivTreeKind, Height: 8},
	}
}

// BenchParallelisms returns the seq-vs-parallel axis the benchmarks sweep:
// always 1 (the sequential baseline speedups compare against) and, when
// the machine has more than one core, every core. Releases are
// byte-identical across the axis, so the comparison is pure scheduling.
func BenchParallelisms() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}
