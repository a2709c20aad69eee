package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return keys
}

// without returns backends less b, in a new slice.
func without(backends []string, b string) []string {
	keep := make([]string, 0, len(backends))
	for _, x := range backends {
		if x != b {
			keep = append(keep, x)
		}
	}
	return keep
}

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a := NewRing([]string{"w1:1", "w2:2", "w3:3"}, 64)
	b := NewRing([]string{"w3:3", "w1:1", "w2:2", "w2:2"}, 64)
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("len: got %d and %d, want 3", a.Len(), b.Len())
	}
	for _, k := range testKeys(500) {
		ao, bo := a.Owner(k), b.Owner(k)
		if a.Backends()[ao] != b.Backends()[bo] {
			t.Fatalf("key %s: order-dependent placement %q vs %q",
				k, a.Backends()[ao], b.Backends()[bo])
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if r.Owner("k") != -1 {
		t.Fatalf("empty ring Owner = %d, want -1", r.Owner("k"))
	}
	if seq := r.OwnerSeq("k", nil); len(seq) != 0 {
		t.Fatalf("empty ring OwnerSeq = %v, want empty", seq)
	}
	if got := r.Shares(); len(got) != 0 {
		t.Fatalf("empty ring Shares = %v", got)
	}
}

func TestRingMinimalMovementOnRemove(t *testing.T) {
	backends := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	r := NewRing(backends, DefaultReplicas)
	smaller := NewRing(without(backends, "c:3"), DefaultReplicas)
	keys := testKeys(4000)
	moved := 0
	for _, k := range keys {
		before := r.Backends()[r.Owner(k)]
		after := smaller.Backends()[smaller.Owner(k)]
		if before != after {
			moved++
			// Only keys the departed backend owned may move.
			if before != "c:3" {
				t.Fatalf("key %s moved %q -> %q though its owner stayed", k, before, after)
			}
		}
	}
	// ~1/5 of the keyspace belonged to the removed backend.
	if moved < len(keys)/10 || moved > len(keys)/2 {
		t.Fatalf("moved %d of %d keys on 1-of-5 removal; want roughly 1/5", moved, len(keys))
	}
}

func TestRingMinimalMovementOnAdd(t *testing.T) {
	r := NewRing([]string{"a:1", "b:2", "c:3"}, DefaultReplicas)
	bigger := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, DefaultReplicas)
	for _, k := range testKeys(4000) {
		before := r.Backends()[r.Owner(k)]
		after := bigger.Backends()[bigger.Owner(k)]
		if before != after && after != "d:4" {
			t.Fatalf("key %s moved %q -> %q, not to the new backend", k, before, after)
		}
	}
}

func TestRingOwnerSeqCoversAllDistinct(t *testing.T) {
	r := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, 32)
	var seq []int
	for _, k := range testKeys(200) {
		seq = r.OwnerSeq(k, seq)
		if len(seq) != 4 {
			t.Fatalf("key %s: OwnerSeq len %d, want 4", k, len(seq))
		}
		seen := map[int]bool{}
		for _, o := range seq {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %d in %v", k, o, seq)
			}
			seen[o] = true
		}
		if seq[0] != r.Owner(k) {
			t.Fatalf("key %s: OwnerSeq[0]=%d != Owner=%d", k, seq[0], r.Owner(k))
		}
	}
}

func TestRingOwnerSeqFailoverConsistency(t *testing.T) {
	// The next owner in the sequence must be the primary owner on the ring
	// without the first — that is what makes breaker re-routing land
	// exactly where a membership removal would.
	r := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, DefaultReplicas)
	for _, k := range testKeys(500) {
		seq := r.OwnerSeq(k, nil)
		first := r.Backends()[seq[0]]
		second := r.Backends()[seq[1]]
		rest := NewRing(without(r.Backends(), first), DefaultReplicas)
		got := rest.Backends()[rest.Owner(k)]
		if got != second {
			t.Fatalf("key %s: OwnerSeq[1]=%q but ring-without-primary owner is %q",
				k, second, got)
		}
	}
}

func TestRingSharesBalanced(t *testing.T) {
	r := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, DefaultReplicas)
	shares := r.Shares()
	sum := 0.0
	for i, s := range shares {
		sum += s
		if s < 0.10 || s > 0.45 {
			t.Fatalf("backend %d share %.3f badly unbalanced", i, s)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum %.6f, want 1", sum)
	}
}

func TestRingOwnerMatchesShares(t *testing.T) {
	// Empirical key placement should roughly follow the analytic arc
	// fractions.
	r := NewRing([]string{"a:1", "b:2", "c:3"}, DefaultReplicas)
	counts := make([]int, r.Len())
	keys := testKeys(6000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for i, s := range r.Shares() {
		frac := float64(counts[i]) / float64(len(keys))
		if frac < s-0.1 || frac > s+0.1 {
			t.Fatalf("backend %d: empirical %.3f vs analytic share %.3f", i, frac, s)
		}
	}
}

func TestRingLargeMembershipOwnerSeq(t *testing.T) {
	// Above maskBackends the walk switches to the []bool seen set; behavior
	// must be identical.
	var backends []string
	for i := 0; i < maskBackends+8; i++ {
		backends = append(backends, fmt.Sprintf("w%03d:80", i))
	}
	r := NewRing(backends, 16)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", rng.Int63())
		seq := r.OwnerSeq(k, nil)
		if len(seq) != len(backends) {
			t.Fatalf("OwnerSeq len %d, want %d", len(seq), len(backends))
		}
		if seq[0] != r.Owner(k) {
			t.Fatalf("OwnerSeq[0] mismatch")
		}
	}
}

func TestRingOwnerAllocFree(t *testing.T) {
	r := NewRing([]string{"a:1", "b:2", "c:3"}, DefaultReplicas)
	key := testKeys(1)[0]
	seq := make([]int, 0, maskBackends)
	allocs := testing.AllocsPerRun(200, func() {
		_ = r.Owner(key)
		seq = r.OwnerSeq(key, seq)
	})
	if allocs != 0 {
		t.Fatalf("Owner+OwnerSeq allocate %.1f/op, want 0", allocs)
	}
}
