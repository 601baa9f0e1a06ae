// Package cluster implements the fleet layer over psdserve replicas: a
// consistent-hash ring routing each release name to an owning replica, an
// active health checker driving healthy→suspect→down transitions off
// /readyz probes, a per-backend circuit breaker, the psdproxy request
// path (bounded retries with exponential backoff + full jitter, failover
// along the ring, Retry-After semantics), and manifest-driven rollouts
// with canary gating and automatic rollback.
//
// The layer leans on one property of the paper's publish-then-serve
// split: a release's noise is fixed at publish time, so every replica
// serving the same artifact returns bit-identical answers. Failover is
// therefore semantically free — any ready replica is as correct as the
// owner — and everything in this package is pure robustness engineering.
package cluster

import (
	"slices"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the ring's per-member vnode count when none is
// given: enough that a 3-replica fleet splits release ownership within a
// few percent of even, cheap enough that ring construction is instant.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a fixed member set.
// Each member is hashed at VirtualNodes positions; a key's owner is the
// member whose vnode follows the key's hash clockwise. Membership is
// fixed at construction (psdproxy's fleet is flag-configured); liveness
// is the health checker's job, not the ring's — routing walks the ring's
// successor order and skips dead members at request time, so a down
// replica needs no ring rebuild and its keys spread over the survivors.
type Ring struct {
	members []string
	hashes  []uint64 // sorted vnode positions
	owner   []int    // owner[i] = members index of hashes[i]
}

// NewRing builds a ring over members (deduplicated, order-independent)
// with the given vnode count per member (<=0 means DefaultVirtualNodes).
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		hashes:  make([]uint64, 0, len(uniq)*vnodes),
		owner:   make([]int, 0, len(uniq)*vnodes),
	}
	type vnode struct {
		h     uint64
		owner int
	}
	vns := make([]vnode, 0, len(uniq)*vnodes)
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			vns = append(vns, vnode{hash64(m + "#" + strconv.Itoa(v)), i})
		}
	}
	// Ties broken by member order so the ring is deterministic even on a
	// (vanishingly unlikely) vnode hash collision.
	sort.Slice(vns, func(a, b int) bool {
		if vns[a].h != vns[b].h {
			return vns[a].h < vns[b].h
		}
		return vns[a].owner < vns[b].owner
	})
	for _, vn := range vns {
		r.hashes = append(r.hashes, vn.h)
		r.owner = append(r.owner, vn.owner)
	}
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string { return r.members }

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	s := r.Successors(key, 1)
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// Successors returns up to n distinct members in the key's failover
// order: the owner first, then each further member in clockwise vnode
// order. Every key has a deterministic preference permutation of the
// whole fleet, so retries always know who is next.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	// First vnode strictly after h, wrapping.
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] > h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		if m := r.members[r.owner[(start+i)%len(r.hashes)]]; !slices.Contains(out, m) {
			out = append(out, m) // out is at most the fleet size: a scan beats a set
		}
	}
	return out
}

// hash64 is 64-bit FNV-1a (hash/fnv's New64a), inlined so hashing a
// routed key allocates nothing.
func hash64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
