package cluster

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"
)

func TestRingOwnerDeterministic(t *testing.T) {
	members := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1 := NewRing(members, 64)
	r2 := NewRing([]string{"http://b:1", "http://a:1", "http://c:1", "http://a:1"}, 64)
	if !reflect.DeepEqual(r1.Members(), r2.Members()) {
		t.Fatalf("member sets differ: %v vs %v", r1.Members(), r2.Members())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("release-%d", i)
		if o1, o2 := r1.Owner(key), r2.Owner(key); o1 != o2 {
			t.Fatalf("key %q: owner depends on construction order: %q vs %q", key, o1, o2)
		}
	}
}

func TestRingSuccessorsDistinctAndComplete(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(members, 32)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("release-%d", i)
		succ := r.Successors(key, len(members))
		if len(succ) != len(members) {
			t.Fatalf("key %q: got %d successors, want %d", key, len(succ), len(members))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %q: duplicate successor %q in %v", key, s, succ)
			}
			seen[s] = true
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("key %q: first successor %q != owner %q", key, succ[0], r.Owner(key))
		}
	}
}

func TestRingSuccessorsTruncation(t *testing.T) {
	r := NewRing([]string{"http://a:1", "http://b:1"}, 16)
	if got := r.Successors("k", 10); len(got) != 2 {
		t.Fatalf("n beyond membership: got %d members, want 2", len(got))
	}
	if got := r.Successors("k", 0); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	empty := NewRing(nil, 16)
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner: got %q, want empty", got)
	}
}

// TestRingBalance checks that vnodes spread ownership within a loose
// factor of even: no member owns more than twice its fair share of keys.
func TestRingBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(members, DefaultVirtualNodes)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("release-%d", i))]++
	}
	fair := keys / len(members)
	for m, c := range counts {
		if c > 2*fair {
			t.Fatalf("member %s owns %d of %d keys (fair share %d): ring badly unbalanced", m, c, keys, fair)
		}
		if c == 0 {
			t.Fatalf("member %s owns no keys", m)
		}
	}
}

// TestRingStabilityUnderMemberLoss: removing one member must not move
// keys between the survivors — the lost member's keys spread, everyone
// else's stay put. This is the property that makes failover cheap.
func TestRingStabilityUnderMemberLoss(t *testing.T) {
	all := []string{"http://a:1", "http://b:1", "http://c:1"}
	full := NewRing(all, 64)
	reduced := NewRing(all[:2], 64)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("release-%d", i)
		was, is := full.Owner(key), reduced.Owner(key)
		if was == "http://c:1" {
			continue // expected to move
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved between surviving members after losing one", moved)
	}
}

// TestRingSuccessorsOrderUnchanged pins Successors to the reference walk it
// replaced, which hashed with hash/fnv and deduplicated through a set: the
// same failover order for every key, fleet size and prefix length.
func TestRingSuccessorsOrderUnchanged(t *testing.T) {
	reference := func(r *Ring, key string, n int) []string {
		if len(r.hashes) == 0 || n <= 0 {
			return nil
		}
		n = min(n, len(r.members))
		h := fnv.New64a()
		h.Write([]byte(key))
		start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] > h.Sum64() })
		out := make([]string, 0, n)
		taken := make(map[int]bool, n)
		for i := 0; i < len(r.hashes) && len(out) < n; i++ {
			idx := r.owner[(start+i)%len(r.hashes)]
			if !taken[idx] {
				taken[idx] = true
				out = append(out, r.members[idx])
			}
		}
		return out
	}
	all := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	for size := 1; size <= len(all); size++ {
		r := NewRing(all[:size], 16)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("release-%d", i)
			for n := 1; n <= size+1; n++ {
				if got, want := r.Successors(key, n), reference(r, key, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d members, key %q, n=%d: successors %v, want %v", size, key, n, got, want)
				}
			}
		}
	}
}
