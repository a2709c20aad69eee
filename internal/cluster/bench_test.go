package cluster

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkClusterRouteAdmit pins the router's per-submit decision path —
// admission (warm client bucket), ring owner-sequence walk, breaker
// admit+record, and the in-flight accounting — at zero allocations. This
// is everything the router adds ahead of the proxied request itself; a
// cache-hit submit therefore costs the backend round trip plus an
// alloc-free routing decision. The alloc count is enforced both here
// (ReportAllocs feeds the tracked baseline behind `make bench-compare`,
// which fails on any alloc regression) and by the hard assertion in
// TestClusterRouteAdmitZeroAlloc.
func BenchmarkClusterRouteAdmit(b *testing.B) {
	rt := newBenchRouter(b)
	key := fmt.Sprintf("%064x", 0xfeed)
	now := time.Unix(1_700_000_000, 0)
	sc := rt.scratch.Get().(*routeScratch)
	defer rt.scratch.Put(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeAdmitOnce(rt, key, now, sc)
	}
}

func newBenchRouter(tb testing.TB) *Router {
	tb.Helper()
	rt, err := NewRouter(RouterConfig{
		Backends: []string{"10.0.0.1:9080", "10.0.0.2:9080", "10.0.0.3:9080"},
		Admit:    AdmitConfig{Rate: 1e9, Burst: 1e9, MaxInflight: 1 << 30},
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Warm the client bucket so the benchmark measures the steady state.
	rt.admit.Admit("bench-client", false, 0, time.Unix(1_700_000_000, 0))
	return rt
}

// routeAdmitOnce is the hot-path decision sequence the HTTP handler runs
// per submit, minus the proxied request: admit, walk the owner sequence,
// take the first backend whose breaker allows, account the attempt, record
// the outcome.
func routeAdmitOnce(rt *Router, key string, now time.Time, sc *routeScratch) int {
	dec := rt.admit.Admit("bench-client", false, rt.total.Load(), now)
	if !dec.OK {
		return -1
	}
	sc.seq = rt.ring.OwnerSeq(key, sc.seq)
	for _, bi := range sc.seq {
		ok, probe, gen := rt.breakers[bi].Allow(now)
		if !ok {
			continue
		}
		rt.inflight[bi].Add(1)
		rt.total.Add(1)
		rt.breakers[bi].Record(now, true, probe, gen)
		rt.inflight[bi].Add(-1)
		rt.total.Add(-1)
		return bi
	}
	return -1
}

// TestClusterRouteAdmitZeroAlloc is the benchmark's assertion twin: it
// fails the ordinary test run (not just the bench gate) if the decision
// path ever allocates.
func TestClusterRouteAdmitZeroAlloc(t *testing.T) {
	rt := newBenchRouter(t)
	key := fmt.Sprintf("%064x", 0xfeed)
	now := time.Unix(1_700_000_000, 0)
	sc := rt.scratch.Get().(*routeScratch)
	defer rt.scratch.Put(sc)
	allocs := testing.AllocsPerRun(500, func() {
		if routeAdmitOnce(rt, key, now, sc) < 0 {
			t.Fatal("decision path refused in steady state")
		}
	})
	if allocs != 0 {
		t.Fatalf("route+admit allocates %.1f/op, want 0", allocs)
	}
}
