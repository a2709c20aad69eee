package cluster

import (
	"fmt"
	"testing"
	"time"
)

func TestAdmitZeroConfigAdmitsEverything(t *testing.T) {
	a := NewAdmitter(AdmitConfig{})
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 100; i++ {
		if dec := a.Admit("c", true, int64(i*1000), now); !dec.OK {
			t.Fatalf("zero-config admitter shed: %+v", dec)
		}
	}
	if st := a.Stats(); st.ShedRateLimit != 0 || st.ShedOverload != 0 || st.Clients != 0 {
		t.Fatalf("zero-config admitter counted %+v, want nothing", st)
	}
}

func TestAdmitTokenBucket(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Rate: 1, Burst: 3})
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 3; i++ {
		if dec := a.Admit("c1", false, 0, now); !dec.OK {
			t.Fatalf("burst admission %d shed: %+v", i, dec)
		}
	}
	dec := a.Admit("c1", false, 0, now)
	if dec.OK || dec.Reason != ShedRateLimit {
		t.Fatalf("4th immediate submit: %+v, want ratelimit shed", dec)
	}
	if dec.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %s below the 1s floor", dec.RetryAfter)
	}
	// Another client has its own bucket.
	if dec := a.Admit("c2", false, 0, now); !dec.OK {
		t.Fatalf("independent client shed: %+v", dec)
	}
	// Refill restores c1 after enough simulated time.
	if dec := a.Admit("c1", false, 0, now.Add(2*time.Second)); !dec.OK {
		t.Fatalf("c1 still shed after refill: %+v", dec)
	}
	st := a.Stats()
	if st.ShedRateLimit != 1 || st.Clients != 2 {
		t.Fatalf("stats %+v, want 1 ratelimit shed over 2 clients", st)
	}
}

func TestAdmitOverloadShedsBulkFirst(t *testing.T) {
	a := NewAdmitter(AdmitConfig{MaxInflight: 10}) // bulk sheds at bulkShare = 0.8
	now := time.Unix(1_700_000_000, 0)

	// At 8/10 utilization: bulk sheds, interactive passes.
	if dec := a.Admit("c", true, 8, now); dec.OK || dec.Reason != ShedOverload {
		t.Fatalf("bulk at 80%%: %+v, want overload shed", dec)
	}
	if dec := a.Admit("c", false, 8, now); !dec.OK {
		t.Fatalf("interactive at 80%% shed: %+v", dec)
	}
	// At 10/10 both shed.
	if dec := a.Admit("c", false, 10, now); dec.OK || dec.Reason != ShedOverload {
		t.Fatalf("interactive at 100%%: %+v, want overload shed", dec)
	}
	// Retry-After grows with the overload depth and caps at 30s.
	shallow := a.Admit("c", false, 10, now).RetryAfter
	deep := a.Admit("c", false, 25, now).RetryAfter
	if deep <= shallow {
		t.Fatalf("Retry-After not monotone in pressure: %s then %s", shallow, deep)
	}
	if got := a.Admit("c", false, 10_000, now).RetryAfter; got != 30*time.Second {
		t.Fatalf("Retry-After cap: %s, want 30s", got)
	}
}

func TestAdmitOverloadBeforeRateLimit(t *testing.T) {
	// An overloaded cluster must not drain the client's token budget.
	a := NewAdmitter(AdmitConfig{Rate: 1, Burst: 1, MaxInflight: 1})
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 3; i++ {
		if dec := a.Admit("c", false, 5, now); dec.Reason != ShedOverload {
			t.Fatalf("shed %d reason %q, want overload", i, dec.Reason)
		}
	}
	// Load clears; the untouched bucket still admits.
	if dec := a.Admit("c", false, 0, now); !dec.OK {
		t.Fatalf("bucket was drained during overload: %+v", dec)
	}
}

func TestAdmitClientTableOverflow(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Rate: 1000, Burst: 1000})
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < clientCap+6; i++ {
		a.Admit(fmt.Sprintf("client-%d", i), false, 0, now)
	}
	st := a.Stats()
	if st.Clients != clientCap {
		t.Fatalf("tracked %d clients, want cap %d", st.Clients, clientCap)
	}
	if st.OverflowHits != 6 {
		t.Fatalf("overflow hits %d, want 6", st.OverflowHits)
	}
}

func TestAdmitWarmPathAllocFree(t *testing.T) {
	a := NewAdmitter(AdmitConfig{Rate: 1e9, Burst: 1e9, MaxInflight: 1 << 30})
	now := time.Unix(1_700_000_000, 0)
	a.Admit("client", false, 0, now) // create the bucket
	allocs := testing.AllocsPerRun(200, func() {
		a.Admit("client", false, 3, now)
	})
	if allocs != 0 {
		t.Fatalf("warm admit allocates %.1f/op, want 0", allocs)
	}
}
