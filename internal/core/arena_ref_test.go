package core

import "psd/internal/geom"

// The arena traversal is the reference implementation of the canonical
// range query of Section 4.1: a plain DFS over the built tree.Tree, one
// node at a time. Production queries run on the slab (PSD.Sealed); the
// slab, the node-major batch engine and every decoded artifact are pinned
// bit-identical to this reference — values, traversal statistics and
// accumulation order — by TestSlabMatchesArena,
// TestDegenerateRectsPinnedAcrossEngines and FuzzCount.

// arenaQuery is arenaQueryWithStats without the statistics.
func (p *PSD) arenaQuery(q geom.Rect) float64 {
	v, _ := p.arenaQueryWithStats(q)
	return v
}

// arenaQueryWithStats estimates the number of data points inside q:
// starting from the root, nodes fully contained in q contribute their
// (post-processed) count, partially intersecting internal nodes descend,
// and partially intersecting leaves contribute under the uniformity
// assumption.
func (p *PSD) arenaQueryWithStats(q geom.Rect) (float64, QueryStats) {
	var st QueryStats
	nodes := p.arena.Nodes
	s := []int32{0}
	var sum float64
	for len(s) > 0 {
		idx := int(s[len(s)-1])
		s = s[:len(s)-1]
		n := &nodes[idx]
		st.NodesVisited++
		if !n.Rect.Intersects(q) {
			continue
		}
		usable := n.Published || p.postProcessed
		if q.ContainsRect(n.Rect) && usable {
			st.NodesAdded++
			sum += n.Est
			continue
		}
		if p.arena.IsLeaf(idx) || n.Pruned {
			if !usable {
				continue // no released information at or below this node
			}
			st.NodesAdded++
			st.PartialLeaves++
			sum += n.Est * n.Rect.OverlapFraction(q)
			continue
		}
		cs := p.arena.ChildStart(idx)
		// Push in reverse so children pop — and contribute — in order.
		s = append(s, int32(cs+3), int32(cs+2), int32(cs+1), int32(cs))
	}
	return sum, st
}

// arenaLeafRegions returns the rectangles and estimated counts of the
// effective leaves (actual leaves plus pruned subtree roots) in
// left-to-right order.
func (p *PSD) arenaLeafRegions() ([]geom.Rect, []float64) {
	var rects []geom.Rect
	var counts []float64
	stack := []int32{0}
	for len(stack) > 0 {
		idx := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		n := &p.arena.Nodes[idx]
		if p.arena.IsLeaf(idx) || n.Pruned {
			rects = append(rects, n.Rect)
			counts = append(counts, n.Est)
			continue
		}
		cs := p.arena.ChildStart(idx)
		stack = append(stack, int32(cs+3), int32(cs+2), int32(cs+1), int32(cs))
	}
	return rects, counts
}
