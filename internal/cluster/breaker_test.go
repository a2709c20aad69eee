package cluster

import (
	"testing"
	"time"
)

// tick is a hand-advanced clock: breaker methods take explicit times, so
// these tests never sleep and cannot race the wall clock.
type tick struct{ now time.Time }

func newTick() *tick { return &tick{now: time.Unix(1_700_000_000, 0)} }

func (c *tick) advance(d time.Duration) time.Time {
	c.now = c.now.Add(d)
	return c.now
}

// failN drives n allowed failures through the breaker.
func failN(t *testing.T, b *Breaker, c *tick, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		recordOne(t, b, c, false)
	}
}

// recordOne drives one allowed outcome through the breaker.
func recordOne(t *testing.T, b *Breaker, c *tick, success bool) {
	t.Helper()
	ok, probe, gen := b.Allow(c.now)
	if !ok {
		t.Fatalf("Allow refused in state %s", b.State())
	}
	b.Record(c.now, success, probe, gen)
}

// alternate drives rateSamples-1 outcomes, failures and successes in
// turn starting with a success (4 failures in 9), so the consecutive run
// never exceeds 1 and the window stays one sample short of judging.
func alternate(t *testing.T, b *Breaker, c *tick) {
	t.Helper()
	for i := 0; i < rateSamples-1; i++ {
		recordOne(t, b, c, i%2 == 0)
	}
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 3})
	failN(t, b, c, 2)
	if b.State() != BreakerClosed {
		t.Fatalf("tripped after 2 of 3 failures")
	}
	failN(t, b, c, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after 3 consecutive failures, want open", b.State())
	}
	if ok, _, _ := b.Allow(c.now); ok {
		t.Fatalf("open breaker admitted during cooldown")
	}
}

func TestBreakerSuccessResetsConsecutive(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 3})
	failN(t, b, c, 2)
	ok, probe, gen := b.Allow(c.now)
	if !ok {
		t.Fatal("Allow refused while closed")
	}
	b.Record(c.now, true, probe, gen)
	failN(t, b, c, 2)
	if b.State() != BreakerClosed {
		t.Fatalf("success did not reset the consecutive run (state %s)", b.State())
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{}) // 5 consecutive failures would trip
	alternate(t, b, c)
	if b.State() != BreakerClosed {
		t.Fatalf("tripped below rateSamples")
	}
	// The 10th sample makes 5/10 = 50%: trip, with a consecutive run of 1.
	failN(t, b, c, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s at 50%% windowed failure rate, want open", b.State())
	}
}

func TestBreakerWindowExpiryIsClockComparison(t *testing.T) {
	// Control: inside one window, the 10th outcome judges 5/10 and trips.
	c := newTick()
	b := NewBreaker(BreakerConfig{})
	alternate(t, b, c)
	failN(t, b, c, 1)
	if b.State() != BreakerOpen {
		t.Fatalf("control: state %s, want open", b.State())
	}
	// The same outcomes, but the 10th lands past the window edge: counts
	// reset, so it is 1/1 of a fresh window below rateSamples, not 5/10 of
	// a stale one.
	c = newTick()
	b = NewBreaker(BreakerConfig{})
	alternate(t, b, c)
	c.advance(rateWindow + time.Second)
	failN(t, b, c, 1)
	if b.State() != BreakerClosed {
		t.Fatalf("window did not expire by timestamp comparison (state %s)", b.State())
	}
}

func TestBreakerHalfOpenProbeCap(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, Cooldown: 5 * time.Second})
	failN(t, b, c, 2)
	c.advance(6 * time.Second)

	// The first Allow half-opens; probeCap probes go out, and the next
	// must be refused — the cap bounds concurrent probes.
	var gen uint64
	for i := 0; i < probeCap; i++ {
		var ok, probe bool
		if ok, probe, gen = b.Allow(c.now); !ok || !probe {
			t.Fatalf("half-open refused probe %d under the cap", i)
		}
	}
	if ok, _, _ := b.Allow(c.now); ok {
		t.Fatalf("half-open admitted a probe over cap %d", probeCap)
	}

	// Finishing a probe frees its slot; one success is short of closing.
	b.Record(c.now, true, true, gen)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %s after 1 of %d probe successes, want half-open", b.State(), probesToClose)
	}
	if ok, probe, _ := b.Allow(c.now); !ok || !probe {
		t.Fatalf("freed probe slot not reusable")
	}
}

func TestBreakerProbesClose(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, Cooldown: time.Second})
	failN(t, b, c, 2)
	c.advance(2 * time.Second)
	for i := 0; i < probesToClose; i++ {
		if b.State() == BreakerClosed {
			t.Fatalf("closed after %d of %d probe successes", i, probesToClose)
		}
		ok, probe, gen := b.Allow(c.now)
		if !ok || !probe {
			t.Fatalf("probe %d refused", i)
		}
		b.Record(c.now, true, probe, gen)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after %d probe successes, want closed", b.State(), probesToClose)
	}
}

func TestBreakerTripDuringProbe(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, Cooldown: time.Second})
	failN(t, b, c, 2)
	c.advance(2 * time.Second)

	// A probe goes out; while it is in flight a list fan-out failure (which
	// bypasses Allow and records against the current generation) re-trips
	// the breaker.
	ok, probe, gen := b.Allow(c.now)
	if !ok || !probe {
		t.Fatal("probe refused")
	}
	b.recordPlain(c.now, false)
	if b.State() != BreakerOpen {
		t.Fatalf("half-open failure did not re-trip (state %s)", b.State())
	}
	tripsBefore := b.Trips()

	// The straggler probe's success belongs to a dead generation: it must
	// not close (or otherwise disturb) the newly opened breaker.
	b.Record(c.now, true, probe, gen)
	if b.State() != BreakerOpen {
		t.Fatalf("stale probe outcome changed state to %s", b.State())
	}
	if got := b.Trips(); got != tripsBefore {
		t.Fatalf("stale probe outcome changed trip count %d -> %d", tripsBefore, got)
	}

	// After another cooldown the breaker half-opens cleanly with a full
	// probe budget: the stale probe holds no slot.
	c.advance(2 * time.Second)
	for i := 0; i < probeCap; i++ {
		if ok, probe, _ := b.Allow(c.now); !ok || !probe {
			t.Fatalf("probe %d refused after the re-trip cooldown", i)
		}
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Second})
	failN(t, b, c, 1)
	c.advance(2 * time.Second)
	ok, probe, gen := b.Allow(c.now)
	if !ok || !probe {
		t.Fatal("expected a half-open probe")
	}
	b.Record(c.now, false, probe, gen)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", b.State())
	}
	// And the new cooldown starts from the re-trip, not the original trip.
	if ok, _, _ := b.Allow(c.advance(500 * time.Millisecond)); ok {
		t.Fatal("admitted before the re-trip cooldown elapsed")
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	c := newTick()
	type hop struct{ from, to BreakerState }
	var hops []hop
	b := NewBreaker(BreakerConfig{
		ConsecutiveFailures: 1, Cooldown: time.Second,
		OnTransition: func(from, to BreakerState, _ time.Time) {
			hops = append(hops, hop{from, to})
		},
	})
	failN(t, b, c, 1) // closed -> open
	c.advance(2 * time.Second)
	// The first probe half-opens; the last probe success closes.
	for i := 0; i < probesToClose; i++ {
		recordOne(t, b, c, true)
	}
	want := []hop{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if len(hops) != len(want) {
		t.Fatalf("got %d transitions %v, want %d", len(hops), hops, len(want))
	}
	for i, w := range want {
		if hops[i] != w {
			t.Fatalf("transition %d = %v, want %v", i, hops[i], w)
		}
	}
}

func TestBreakerStaleGenerationDropped(t *testing.T) {
	c := newTick()
	b := NewBreaker(BreakerConfig{ConsecutiveFailures: 2, Cooldown: time.Second})
	// A request admitted while closed...
	ok, probe, gen := b.Allow(c.now)
	if !ok {
		t.Fatal("Allow refused while closed")
	}
	// ...the breaker trips underneath it and half-opens after the cooldown...
	failN(t, b, c, 2)
	c.advance(2 * time.Second)
	if ok, probe, _ := b.Allow(c.now); !ok || !probe {
		t.Fatal("setup: breaker should be half-open")
	}
	// ...and its late failure must not re-trip the half-open state, as a
	// failure of the current generation would.
	b.Record(c.now, false, probe, gen)
	if b.State() != BreakerHalfOpen || b.Trips() != 1 {
		t.Fatalf("stale outcome leaked into new state: %s after %d trips", b.State(), b.Trips())
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "closed" || BreakerHalfOpen.String() != "half-open" ||
		BreakerOpen.String() != "open" || BreakerState(9).String() != "unknown" {
		t.Fatal("state strings changed — logs, metrics, and e2e greps depend on them")
	}
}
