// Admission control ahead of routing: a per-client token bucket (rate
// limiting) and a utilization-based load shedder (reject when the
// cluster's in-flight count approaches capacity, bulk before interactive).
// Overload is turned away at the edge with a 429 + Retry-After instead of
// deepening a worker queue — the same backpressure contract the workers
// themselves speak, so clients need one retry loop for both layers.
package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// Shed reasons reported in Decision.Reason, metrics labels, and logs.
const (
	ShedRateLimit = "ratelimit"
	ShedOverload  = "overload"
)

// Admission settings no deployment varies.
const (
	// clientCap bounds the tracked client set. Clients beyond it share one
	// overflow bucket — a full table degrades to coarse fairness instead
	// of unbounded memory.
	clientCap = 4096
	// bulkShare is the fraction of MaxInflight at which bulk-class
	// submissions shed while interactive ones still pass. Interactive sheds
	// only at full MaxInflight, preserving interactive-over-bulk end to end.
	bulkShare = 0.8
)

// AdmitConfig tunes the admission stage. The zero value admits everything
// (both mechanisms disabled).
type AdmitConfig struct {
	// Rate is the sustained per-client submission rate in tokens/second.
	// <= 0 disables rate limiting.
	Rate float64
	// Burst is the bucket capacity (momentary excursion above Rate).
	// <= 0 defaults to max(Rate, 1).
	Burst float64
	// MaxInflight bounds the cluster's in-flight proxied requests: every
	// request the router is proxying counts, reads and NDJSON streams held
	// open for a job's whole run included, not only submissions. <= 0
	// disables utilization shedding.
	MaxInflight int
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.Burst <= 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Decision is one admission verdict.
type Decision struct {
	OK bool
	// Reason is ShedRateLimit or ShedOverload when !OK.
	Reason string
	// RetryAfter is the backoff hint for the 429 (>= 1s).
	RetryAfter time.Duration
}

// bucket is one client's token bucket. Tokens refill continuously at
// Rate/s up to Burst; one token admits one submission.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take refills by elapsed time and tries to spend one token. On refusal
// it returns how long until a token will be available.
func (b *bucket) take(now time.Time, rate, burst float64) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * rate
	} else {
		b.tokens = burst
	}
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / rate * float64(time.Second))
}

// Admitter applies the configured policy. Safe for concurrent use; the
// warm path (known client, admitted) performs no allocations.
type Admitter struct {
	cfg AdmitConfig

	mu       sync.RWMutex
	buckets  map[string]*bucket
	overflow bucket

	shedRate    atomic.Int64
	shedLoad    atomic.Int64
	overflowHit atomic.Int64
}

// NewAdmitter returns an admitter with cfg's defaults materialized.
func NewAdmitter(cfg AdmitConfig) *Admitter {
	return &Admitter{
		cfg:     cfg.withDefaults(),
		buckets: make(map[string]*bucket),
	}
}

// Admit decides one submission: client identifies the token bucket, bulk
// selects the lower shed threshold, inflight is the count MaxInflight
// bounds (the router passes every proxied request in flight, streams
// included), and now is the decision time (passed in so tests drive the
// clock). Shedding is checked before the rate limiter so
// an overloaded cluster does not drain client budgets it cannot serve.
func (a *Admitter) Admit(client string, bulk bool, inflight int64, now time.Time) Decision {
	if a.cfg.MaxInflight > 0 {
		limit := int64(a.cfg.MaxInflight)
		if bulk {
			limit = int64(float64(a.cfg.MaxInflight) * bulkShare)
			if limit < 1 {
				limit = 1
			}
		}
		if inflight >= limit {
			a.shedLoad.Add(1)
			// Monotone in pressure, like the workers' queue-length hint.
			wait := time.Duration(1+(inflight-limit)) * time.Second
			if wait > 30*time.Second {
				wait = 30 * time.Second
			}
			return Decision{Reason: ShedOverload, RetryAfter: wait}
		}
	}
	if a.cfg.Rate > 0 {
		b := a.bucketFor(client)
		ok, wait := b.take(now, a.cfg.Rate, a.cfg.Burst)
		if !ok {
			a.shedRate.Add(1)
			if wait < time.Second {
				wait = time.Second
			}
			return Decision{Reason: ShedRateLimit, RetryAfter: wait}
		}
	}
	return Decision{OK: true}
}

// bucketFor returns the client's bucket, creating it under the cap and
// falling back to the shared overflow bucket beyond it.
func (a *Admitter) bucketFor(client string) *bucket {
	a.mu.RLock()
	b := a.buckets[client]
	a.mu.RUnlock()
	if b != nil {
		return b
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b = a.buckets[client]; b != nil {
		return b
	}
	if len(a.buckets) >= clientCap {
		a.overflowHit.Add(1)
		return &a.overflow
	}
	b = &bucket{}
	a.buckets[client] = b
	return b
}

// AdmitStats is the admission counters snapshot.
type AdmitStats struct {
	ShedRateLimit int64
	ShedOverload  int64
	// Clients is the tracked client-bucket count.
	Clients int
	// OverflowHits counts admissions judged by the shared overflow bucket
	// because the client table was full.
	OverflowHits int64
}

// Stats snapshots the counters.
func (a *Admitter) Stats() AdmitStats {
	a.mu.RLock()
	clients := len(a.buckets)
	a.mu.RUnlock()
	return AdmitStats{
		ShedRateLimit: a.shedRate.Load(),
		ShedOverload:  a.shedLoad.Load(),
		Clients:       clients,
		OverflowHits:  a.overflowHit.Load(),
	}
}
