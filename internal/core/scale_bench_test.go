package core

import (
	"math"
	"sync"
	"testing"

	"netags/internal/geom"
	"netags/internal/topology"
)

// scaleNetworks caches built networks per size: `make bench` runs every
// benchmark function -count times, and rebuilding the million-tag adjacency
// (~4×10^7 edges) per count would dwarf the measured sessions. Networks are
// read-only during sessions, so sharing is safe.
var scaleNetworks sync.Map // n -> *topology.Network

// scaleNetwork builds a constant-density deployment: the disk area grows
// with n, so every size has the same local structure (~44 tag neighbors,
// ~11 tiers, L_c = 22). Benchmarks across sizes then measure how the kernel
// scales, not how the topology changes shape.
func scaleNetwork(tb testing.TB, n int) *topology.Network {
	tb.Helper()
	if v, ok := scaleNetworks.Load(n); ok {
		return v.(*topology.Network)
	}
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
	scaleNetworks.Store(n, nw)
	return nw
}

// scaleConfig is the session shape used by the scale benchmarks and the
// simtest scale tier. Sampling scales inversely with n (~200 participating
// tags at every size) so the frame never saturates in round 1: ~26 of the
// sources sit in the outer ring, and their bits must relay tier by tier,
// which keeps the multi-round delivery path honest at every size.
func scaleConfig(n int) Config {
	return Config{FrameSize: 256, Seed: 9, Sampling: 200 / float64(n)}
}

// benchmarkSessionN times warm-Runner sessions over scaleNetwork(n). On a
// 2-core Xeon @ 2.1 GHz a session takes ~26 ms, ~52 ms and ~0.2 s at 10^4,
// 10^5 and 10^6 tags; the work grows with the tags the ~200 sources' bits
// reach, not with a per-tag copy of the indicator vector, and the 10^6-tag
// arena holds 32 MB of heard bits. Building the 10^6-tag network takes far
// longer than a session, hence scaleNetworks.
func benchmarkSessionN(b *testing.B, n int) {
	nw := scaleNetwork(b, n)
	cfg := scaleConfig(n)
	r := NewRunner()
	// Warm the arena so the measured iterations are the steady state a
	// long-running sweep sees.
	if _, err := r.Run(nw, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(nw, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Truncated {
			b.Fatal("scale session truncated; benchmark config no longer drains")
		}
	}
}

func BenchmarkSessionN1e4(b *testing.B) { benchmarkSessionN(b, 1e4) }
func BenchmarkSessionN1e5(b *testing.B) { benchmarkSessionN(b, 1e5) }
func BenchmarkSessionN1e6(b *testing.B) { benchmarkSessionN(b, 1e6) }

// BenchmarkRunnerReuse alternates two differently shaped configs (lossy and
// reliable, different seeds) through one Runner — the sweep-worker pattern —
// to pin the cost of arena re-initialization between heterogeneous sessions.
func BenchmarkRunnerReuse(b *testing.B) {
	nw := scaleNetwork(b, 1e4)
	cfgs := [2]Config{
		{FrameSize: 64, Seed: 9, Sampling: 0.001},
		{FrameSize: 64, Seed: 10, Sampling: 0.002, LossProb: 0.1, LossSeed: 3},
	}
	r := NewRunner()
	for _, cfg := range cfgs {
		if _, err := r.Run(nw, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(nw, cfgs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
