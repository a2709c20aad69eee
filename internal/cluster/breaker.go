// Per-backend circuit breaker. Classic three-state machine — closed,
// open, half-open — with two trip conditions (a consecutive-failure count
// for hard-down backends, a windowed failure rate for flapping ones), a
// cooldown before probing, and a bounded number of concurrent half-open
// probes so a recovering backend is not stampeded.
//
// Every method takes the current time explicitly instead of reading a
// clock, so the state machine is a pure function of its call sequence:
// tests drive it with a hand-advanced timestamp and never sleep, and the
// failure window expires by timestamp comparison, not by timer.
package cluster

import (
	"sync"
	"time"
)

// BreakerState is the circuit's position.
type BreakerState int32

// The breaker states. The zero value is closed (healthy).
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String returns the lowercase state name used in logs and events.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// Breaker settings no deployment varies. The windowed-rate trip and the
// probe cap stay as mechanisms; only their settings are fixed.
const (
	// tripRate trips the breaker when failures/total over the trailing
	// rateWindow reaches this fraction with at least rateSamples outcomes.
	tripRate    = 0.5
	rateSamples = 10
	// rateWindow is the failure-rate observation window. Counts reset when
	// a recorded outcome arrives more than rateWindow after the window
	// opened — expiry is clock-comparison only, never a timer.
	rateWindow = 10 * time.Second
	// probeCap caps concurrent in-flight probes while half-open.
	probeCap = 1
	// probesToClose is how many probe successes close the breaker.
	probesToClose = 2
)

// BreakerConfig tunes one breaker. The zero value takes every default.
type BreakerConfig struct {
	// ConsecutiveFailures trips the breaker after this many failures in a
	// row (<= 0 takes the default, 5).
	ConsecutiveFailures int
	// Cooldown is how long an open breaker blocks before allowing
	// half-open probes (<= 0 takes the default, 5s).
	Cooldown time.Duration
	// OnTransition, when non-nil, observes every state change. It is
	// invoked with the breaker's lock held: it must be fast and must not
	// call back into the breaker.
	OnTransition func(from, to BreakerState, now time.Time)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// Breaker is one backend's circuit. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu    sync.Mutex
	state BreakerState
	// gen increments on every state transition. Allow hands the current
	// generation to the caller; Record ignores outcomes from a stale
	// generation, so a request admitted before a trip (or a probe that
	// outlived a re-trip) cannot corrupt the new state's accounting.
	gen uint64

	consec   int       // consecutive failures while closed
	winStart time.Time // failure-rate window anchor
	winFails int
	winTotal int

	openedAt time.Time // when the breaker last opened
	probes   int       // in-flight half-open probes
	probeOK  int       // successes this half-open episode

	trips uint64 // cumulative, for metrics
}

// NewBreaker returns a closed breaker with cfg's defaults materialized.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow asks whether a request may proceed at time now. When ok, the
// caller must eventually call Record with the returned gen (and probe
// flag). probe marks half-open trial requests — they are capped at
// probeCap concurrently and their outcomes drive the
// close-or-reopen decision.
func (b *Breaker) Allow(now time.Time) (ok, probe bool, gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false, b.gen
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false, b.gen
		}
		b.transition(BreakerHalfOpen, now)
		fallthrough
	case BreakerHalfOpen:
		if b.probes >= probeCap {
			return false, false, b.gen
		}
		b.probes++
		return true, true, b.gen
	}
	return false, false, b.gen
}

// Record reports the outcome of a request admitted by Allow. Outcomes
// from a generation older than the breaker's current one are dropped —
// the state that admitted them no longer exists.
func (b *Breaker) Record(now time.Time, success, probe bool, gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen {
		return
	}
	switch b.state {
	case BreakerClosed:
		if now.Sub(b.winStart) > rateWindow {
			b.winStart = now
			b.winFails, b.winTotal = 0, 0
		}
		b.winTotal++
		if success {
			b.consec = 0
			return
		}
		b.consec++
		b.winFails++
		if b.consec >= b.cfg.ConsecutiveFailures ||
			(b.winTotal >= rateSamples && float64(b.winFails)/float64(b.winTotal) >= tripRate) {
			b.trip(now)
		}
	case BreakerHalfOpen:
		if probe && b.probes > 0 {
			b.probes--
		}
		if !success {
			// Any half-open failure — probe or a straggler from the same
			// generation — re-trips immediately.
			b.trip(now)
			return
		}
		if probe {
			b.probeOK++
			if b.probeOK >= probesToClose {
				b.transition(BreakerClosed, now)
			}
		}
	case BreakerOpen:
		// Same-generation records cannot arrive while open (opening bumps
		// the generation); nothing to do.
	}
}

// trip moves to open and resets all episode state. Caller holds mu.
func (b *Breaker) trip(now time.Time) {
	b.openedAt = now
	b.trips++
	b.transition(BreakerOpen, now)
}

// transition switches state, bumps the generation, and resets the
// episode-scoped counters of the state being entered. Caller holds mu.
func (b *Breaker) transition(to BreakerState, now time.Time) {
	from := b.state
	b.state = to
	b.gen++
	b.consec = 0
	b.winStart = now
	b.winFails, b.winTotal = 0, 0
	b.probes, b.probeOK = 0, 0
	if b.cfg.OnTransition != nil && from != to {
		b.cfg.OnTransition(from, to, now)
	}
}

// State reports the breaker's position at time now. An open breaker whose
// cooldown has elapsed still reports open until a request half-opens it —
// probing is driven by traffic, not by the clock alone.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
