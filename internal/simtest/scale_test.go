package simtest

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/topology"
)

// The scale tier runs the differential oracles at deployment sizes the
// regular suite never reaches (10^4–10^6 tags). It is opt-in — `make
// test-scale` sets CCM_SCALE=1 — so tier-1 stays fast; CI runs it as a
// separate job with -timeout headroom.

func requireScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("scale tier skipped in -short")
	}
	if os.Getenv("CCM_SCALE") != "1" {
		t.Skip("scale tier disabled; run via `make test-scale` (CCM_SCALE=1)")
	}
}

// scaleNetwork builds the constant-density deployment the scale tier and the
// core benchmarks share: the disk area grows with n, so every size has the
// same local structure (~44 tag neighbors, ~11 tiers, L_c = 22).
func scaleNetwork(tb testing.TB, n int) *topology.Network {
	tb.Helper()
	radius := 300 * math.Sqrt(float64(n)/1e6)
	d := geom.NewUniformDisk(n, radius, 0x5ca1e)
	nw, err := topology.Build(d, 0, topology.Ranges{
		ReaderToTag: radius,
		TagToReader: radius - 20,
		TagToTag:    2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// scaleConfig mirrors the core scale benchmarks: sampling scales inversely
// with n (~200 participants at every size) so the 256-slot frame never
// saturates in round 1 and outer-ring bits must relay tier by tier.
func scaleConfig(n int, seed uint64) core.Config {
	return core.Config{FrameSize: 256, Seed: seed, Sampling: 200 / float64(n)}
}

// TestScaleTierOracle holds the grid-bucketed tier builder to the O(n²)
// brute-force oracle at sizes where a bucketing bug (cell size, border
// handling) would actually bite. BruteTiers is quadratic, which caps this
// test's sizes below the session differentials'.
func TestScaleTierOracle(t *testing.T) {
	requireScale(t)
	for _, n := range []int{10_000, 30_000} {
		nw := scaleNetwork(t, n)
		want := BruteTiers(nw.Deployment, 0, nw.Ranges, nil)
		for i, w := range want {
			if nw.Tier[i] != w {
				t.Fatalf("n=%d: tag %d tier %d, brute-force oracle says %d", n, i, nw.Tier[i], w)
			}
		}
	}
}

// TestScaleSessionMatchesDirect runs pooled sessions at 10^4 and 10^5 tags
// and holds the final bitmap to DirectBitmap (Theorem 1), exactly.
func TestScaleSessionMatchesDirect(t *testing.T) {
	requireScale(t)
	runner := core.NewRunner()
	for _, n := range []int{10_000, 100_000} {
		nw := scaleNetwork(t, n)
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := scaleConfig(n, seed)
			res, err := runner.Run(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatalf("n=%d seed=%d: session truncated", n, seed)
			}
			want, err := core.DirectBitmap(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Bitmap.Equal(want) {
				t.Fatalf("n=%d seed=%d: session bitmap diverges from DirectBitmap", n, seed)
			}
		}
	}
}

// TestScaleMillionTagSmoke is the north-star check: one million tags through
// the pooled kernel, twice (to exercise arena reuse at full scale), matching
// DirectBitmap exactly and staying inside explicit duration and heap
// budgets. The budgets are deliberately loose — far over the measured
// ~0.2 s/session and ~150 MiB live heap (2-core Xeon @ 2.1 GHz; the
// adjacency's row masks are ~63 MB of it, the arena 32 MB of heard bits)
// — so they catch asymptotic regressions (an accidental O(n) alloc per
// round, a retained per-round slice) rather than machine-speed noise.
func TestScaleMillionTagSmoke(t *testing.T) {
	requireScale(t)
	const n = 1_000_000
	nw := scaleNetwork(t, n)
	runner := core.NewRunner()
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := scaleConfig(n, seed)
		start := time.Now()
		res, err := runner.Run(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if res.Truncated {
			t.Fatalf("seed=%d: million-tag session truncated after %d rounds", seed, res.Rounds)
		}
		want, err := core.DirectBitmap(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Bitmap.Equal(want) {
			t.Fatalf("seed=%d: million-tag bitmap diverges from DirectBitmap", seed)
		}
		if budget := 120 * time.Second; elapsed > budget {
			t.Errorf("seed=%d: session took %v, budget %v", seed, elapsed, budget)
		}
		t.Logf("seed=%d: %d rounds, %d busy slots, %v", seed, res.Rounds, res.Bitmap.Count(), elapsed)
	}
	// Measure the live footprint while the network and warm arena are still
	// reachable (KeepAlive below — without it the GC is free to collect both
	// before ReadMemStats and the budget check measures nothing).
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if budget := uint64(1500 << 20); ms.HeapAlloc > budget {
		t.Errorf("live heap after GC: %d MiB, budget %d MiB (arena or topology retaining too much)",
			ms.HeapAlloc>>20, budget>>20)
	}
	t.Logf("live heap after GC: %d MiB", ms.HeapAlloc>>20)
	runtime.KeepAlive(nw)
	runtime.KeepAlive(runner)
}
