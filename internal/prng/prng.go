// Package prng provides the deterministic pseudo-random primitives shared by
// every protocol in this repository.
//
// Two distinct needs are served:
//
//   - Source: a seedable, stream-style generator (splitmix64) used for
//     deployment sampling, trial seeds, and backoff draws. It is deliberately
//     not math/rand so that results are reproducible across Go releases.
//   - Hash-based slot selection: the paper's protocols require that a tag's
//     slot choice be a pure function of (tag ID, request seed) so the reader
//     can recompute it — TRP predicts which slots must be busy, and Theorem 1
//     relies on tags making identical choices in networked and traditional
//     systems. HashID / SlotOf implement that function.
package prng

import "math/bits"

// Source is a splitmix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
//
// splitmix64 passes BigCrush, needs only 64 bits of state, and — unlike
// math/rand's generator — is trivially portable, so simulation results are
// bit-for-bit reproducible.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive bound is always a programming error.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn bound must be positive")
	}
	// Lemire's multiply-shift rejection method: unbiased and divisionless in
	// the common case.
	bound := uint64(n)
	threshold := -bound % bound // (2^64 - bound) % bound
	for {
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// DeriveSeed derives the seed of an independent stream from a base seed and
// the position coordinates of a work item — typically (sweep point, trial
// index, stream index). Unlike drawing seeds from one shared Source in loop
// order, the result depends only on (base, coords): reordering, skipping, or
// parallelizing the enclosing loops cannot reshuffle which seed a given
// trial receives. The experiment harness keys every deployment and protocol
// run this way so parallel sweeps stay bit-identical to sequential ones.
func DeriveSeed(base uint64, coords ...uint64) uint64 {
	x := base ^ 0x6a09e667f3bcc909 // golden-ratio offset keeps base 0 usable
	for _, c := range coords {
		x = HashID(c, x)
	}
	return x
}

// HashID mixes a 96-bit tag ID (truncated here to 64 bits of identifier
// space, which is far beyond any simulated population) with a request seed.
// The result is a uniform 64-bit value that both the tag and the reader can
// compute independently.
func HashID(id uint64, seed uint64) uint64 {
	x := id ^ (seed * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SlotOf returns the frame slot a tag with the given ID picks for the request
// identified by seed, in [0, frameSize). Both tags and the reader call this,
// which is what lets TRP predict busy slots.
func SlotOf(id uint64, seed uint64, frameSize int) int {
	if frameSize <= 0 {
		panic("prng: frame size must be positive")
	}
	// Multiply-shift map of the hash onto [0, frameSize): unbiased enough for
	// frame sizes that fit in 32 bits (the bias is < 2^-32).
	hi, _ := bits.Mul64(HashID(id, seed), uint64(frameSize))
	return int(hi)
}

// Participates reports whether the tag with the given ID participates in a
// sampled frame with probability p for the request identified by seed. The
// decision is independent of the slot choice (a different mix constant).
func Participates(id uint64, seed uint64, p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	h := HashID(id, seed^0xa0761d6478bd642f)
	return float64(h>>11)/(1<<53) < p
}
