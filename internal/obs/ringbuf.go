package obs

// RingBuffer is a fixed-capacity overwrite buffer: once full, each Push
// evicts the oldest element. It holds no lock; owners guard it with their
// own. The event ring, the time-series rings and the serve layer's per-job
// trace tails are all RingBuffers, so the modulo, snapshot and loss
// arithmetic lives here once.
type RingBuffer[T any] struct {
	buf   []T
	total uint64
}

// NewRingBuffer returns an empty buffer holding the last n elements
// (n must be positive).
func NewRingBuffer[T any](n int) RingBuffer[T] {
	return RingBuffer[T]{buf: make([]T, n)}
}

// Push appends v and reports whether it overwrote a retained element.
func (r *RingBuffer[T]) Push(v T) (evicted bool) {
	n := uint64(len(r.buf))
	r.buf[r.total%n] = v
	r.total++
	return r.total > n
}

// Cap returns the capacity.
func (r *RingBuffer[T]) Cap() int { return len(r.buf) }

// Len returns how many elements are retained.
func (r *RingBuffer[T]) Len() int {
	if n := uint64(len(r.buf)); r.total > n {
		return len(r.buf)
	}
	return int(r.total)
}

// Total returns how many elements were ever pushed.
func (r *RingBuffer[T]) Total() uint64 { return r.total }

// Dropped returns how many elements were evicted by overwrite.
func (r *RingBuffer[T]) Dropped() uint64 { return r.total - uint64(r.Len()) }

// AppendTo appends the retained elements to dst, oldest first.
func (r *RingBuffer[T]) AppendTo(dst []T) []T {
	if r.total <= uint64(len(r.buf)) {
		return append(dst, r.buf[:r.total]...)
	}
	start := int(r.total % uint64(len(r.buf)))
	dst = append(dst, r.buf[start:]...)
	return append(dst, r.buf[:start]...)
}
