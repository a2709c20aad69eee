package topology

import (
	"testing"

	"netags/internal/prng"
)

// TestTranspose64 holds transpose64 to the definition, bit orientation
// included: afterwards bit i of a[j] is what bit j of a[i] was. Each single
// bit must land on its mirror, and random and sparse matrices must match a
// bit-by-bit transpose.
func TestTranspose64(t *testing.T) {
	brute := func(in *[64]uint64) (out [64]uint64) {
		for i := range 64 {
			for j := range 64 {
				out[j] |= in[i] >> j & 1 << i
			}
		}
		return out
	}
	for i := range 64 {
		for j := range 64 {
			var a [64]uint64
			a[i] = 1 << j
			transpose64(&a)
			for k, row := range a {
				want := uint64(0)
				if k == j {
					want = 1 << i
				}
				if row != want {
					t.Fatalf("bit %d of row %d: row %d is %#x, want %#x", j, i, k, row, want)
				}
			}
		}
	}
	rng := prng.New(5)
	for trial := range 200 {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
			// Every other trial keeps about one bit in 32: the sparse
			// tiles of a large network.
			if trial%2 == 1 {
				a[i] &= rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		want := brute(&a)
		transpose64(&a)
		if a != want {
			t.Fatalf("trial %d: transpose differs from the bit-by-bit one", trial)
		}
		if transpose64(&a); a != brute(&want) {
			t.Fatalf("trial %d: transposing twice is not the identity", trial)
		}
	}
}
