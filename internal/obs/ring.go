package obs

import "sync"

// DefaultRingSize is the capacity NewRing uses when given a non-positive
// size — enough to hold the tail of a large sweep (a 10k-tag CCM session
// emits a few hundred events) without holding the whole run in memory.
const DefaultRingSize = 1024

// Ring is a bounded tracer that keeps only the most recent events: a
// fixed-capacity overwrite buffer, so a long sweep can stay introspectable
// (the httpserve /events endpoint tails it) at constant memory. Safe for
// concurrent use; like every tracer it is observe-only.
type Ring struct {
	mu  sync.Mutex
	buf RingBuffer[Event]
}

// NewRing returns a ring holding the last n events (DefaultRingSize when
// n <= 0).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{buf: NewRingBuffer[Event](n)}
}

// Trace records the event, evicting the oldest one once the ring is full.
func (r *Ring) Trace(ev Event) {
	r.mu.Lock()
	r.buf.Push(ev)
	r.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return r.buf.Cap() }

// Total returns how many events the ring has ever seen (retained or
// evicted).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Total()
}

// Dropped returns how many events have been evicted by overwrite — the
// monotonic loss counter behind netags_events_dropped_total, so event loss
// under load is observable rather than inferred from Total vs Cap.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Dropped()
}

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.AppendTo(make([]Event, 0, r.buf.Len()))
}

// Last returns the most recent k retained events, oldest first. k larger
// than the retained count returns everything.
func (r *Ring) Last(k int) []Event {
	evs := r.Events()
	if k < 0 {
		k = 0
	}
	if k < len(evs) {
		evs = evs[len(evs)-k:]
	}
	return evs
}

// Register adds the ring's occupancy families to reg.
func (r *Ring) Register(reg *Registry) {
	reg.CounterFunc("netags_events_total", "Events ever offered to the in-memory event ring.",
		func() int64 { return int64(r.Total()) })
	reg.CounterFunc("netags_events_dropped_total", "Events evicted from the ring by overwrite.",
		func() int64 { return int64(r.Dropped()) })
}
