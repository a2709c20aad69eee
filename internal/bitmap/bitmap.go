// Package bitmap implements the dense bitsets that carry all information in
// CCM: frame status bitmaps, indicator vectors, and per-tag slot-state masks.
//
// The paper's information model (§III-B) represents an f-slot time frame as
// an f-bit bitmap where bit i is 1 iff slot i was busy. Everything the reader
// learns — and everything tags relay — is unions (bitwise OR) of such
// bitmaps, so Or and the set-iteration helpers are the hot paths.
package bitmap

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitmap is a fixed-length bitset. The zero value is an empty bitmap of
// length 0; use New for a sized one.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero bitmap with n bits. n must be non-negative.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Words returns the backing words: bit i lives at words[i/64] bit i%64. The
// slice aliases the bitmap, for word-at-a-time kernels; callers must not set
// bits at or beyond Len.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is 1.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic("bitmap: index out of range")
	}
}

// Or sets b to b | other. The bitmaps must have equal length.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: length mismatch in Or")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// AndNot sets b to b &^ other (clears every bit set in other). The bitmaps
// must have equal length.
func (b *Bitmap) AndNot(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: length mismatch in AndNot")
	}
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Zeros returns the number of clear bits (Len - Count). RFID estimators work
// off the fraction of zeros, so this gets a named helper.
func (b *Bitmap) Zeros() int { return b.n - b.Count() }

// Any reports whether at least one bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether b and other have identical length and contents.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with other's contents in place — the allocation-free
// counterpart of Clone for pooled scratch bitmaps. The bitmaps must have
// equal length.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: length mismatch in CopyFrom")
	}
	copy(b.words, other.words)
}

// Reset clears every bit in place.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*wordBits + bit)
			w &= w - 1
		}
	}
}

// Indices returns the positions of all set bits in ascending order.
func (b *Bitmap) Indices() []int {
	return b.AppendIndices(make([]int, 0, b.Count()))
}

// AppendIndices appends the positions of all set bits to dst in ascending
// order and returns the extended slice. Callers that reuse dst across frames
// iterate set bits without the per-call allocation of Indices (and without a
// closure, which keeps the session hot path free of escape-analysis traps).
func (b *Bitmap) AppendIndices(dst []int) []int {
	for wi, w := range b.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// ContainsAll reports whether every bit set in other is also set in b.
func (b *Bitmap) ContainsAll(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range other.words {
		if b.words[i]&w != w {
			return false
		}
	}
	return true
}

// String renders the bitmap as a 0/1 string, most significant slot last —
// the natural reading order for a time frame. Long bitmaps are elided.
func (b *Bitmap) String() string {
	const maxRender = 128
	var sb strings.Builder
	n := b.n
	elided := false
	if n > maxRender {
		n = maxRender
		elided = true
	}
	sb.Grow(n + 16)
	for i := 0; i < n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if elided {
		sb.WriteString("...")
	}
	return sb.String()
}
