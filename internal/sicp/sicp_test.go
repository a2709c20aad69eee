package sicp

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"netags/internal/geom"
	"netags/internal/topology"
)

func diskNetwork(t *testing.T, n int, r float64, seed uint64) *topology.Network {
	t.Helper()
	d := geom.NewUniformDisk(n, 30, seed)
	nw, err := topology.Build(d, 0, topology.PaperRanges(r))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// reachableIDs returns the sorted IDs of all in-system tags.
func reachableIDs(nw *topology.Network, ids []uint64) []uint64 {
	var out []uint64
	for i := 0; i < nw.N(); i++ {
		if nw.Tier[i] > 0 {
			if ids != nil {
				out = append(out, ids[i])
			} else {
				out = append(out, uint64(i)+1)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func assertCollectsAll(t *testing.T, nw *topology.Network, got, ids []uint64) {
	t.Helper()
	want := reachableIDs(nw, ids)
	g := append([]uint64(nil), got...)
	sort.Slice(g, func(a, b int) bool { return g[a] < g[b] })
	if len(g) != len(want) {
		t.Fatalf("collected %d IDs, want %d", len(g), len(want))
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("collected[%d] = %d, want %d", i, g[i], want[i])
		}
	}
}

func TestCollectGathersEveryReachableID(t *testing.T) {
	for _, r := range []float64{2, 4, 6, 10} {
		nw := diskNetwork(t, 1500, r, 201)
		res, err := Collect(nw, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		assertCollectsAll(t, nw, res.Collected, nil)
	}
}

func TestCollectCustomIDs(t *testing.T) {
	nw := diskNetwork(t, 500, 6, 203)
	ids := make([]uint64, nw.N())
	for i := range ids {
		ids[i] = uint64(i)*7 + 99
	}
	res, err := Collect(nw, Options{Seed: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	assertCollectsAll(t, nw, res.Collected, ids)
}

func TestCollectExcludesUnreachable(t *testing.T) {
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 10}, {X: 29}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collected) != 1 || res.Collected[0] != 1 {
		t.Fatalf("collected %v, want only tag 0's ID", res.Collected)
	}
	// The unreachable tag spends no energy: it never hears the request.
	if res.Meter.Sent(1) != 0 || res.Meter.Received(1) != 0 {
		t.Fatalf("unreachable tag charged energy: sent=%d recv=%d",
			res.Meter.Sent(1), res.Meter.Received(1))
	}
}

func TestCollectAccounting(t *testing.T) {
	nw := diskNetwork(t, 1000, 6, 207)
	res, err := Collect(nw, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := func(i int) bool { return nw.Tier[i] > 0 }
	s := res.Meter.Summarize(in)
	// Every reachable tag sends at least its flood rebroadcast + its own ID.
	if s.TotalSent < int64(nw.Reachable)*2*96 {
		t.Fatalf("total sent %d below the 2-messages-per-tag floor", s.TotalSent)
	}
	// Reception dominates transmission (promiscuous overhearing).
	if s.TotalReceived <= s.TotalSent {
		t.Fatalf("received %d <= sent %d; overhearing should dominate", s.TotalReceived, s.TotalSent)
	}
	// Long slots: one per message = TotalSent/96 plus the reader's request.
	if got, want := res.Clock.LongSlots, s.TotalSent/96+1; got != want {
		t.Fatalf("long slots = %d, want %d", got, want)
	}
	if res.Clock.ShortSlots == 0 {
		t.Fatal("no backoff slots recorded")
	}
	// Every parent is exactly one tier up, so the tree is as deep as the
	// network has tiers.
	if res.TreeDepth != nw.K {
		t.Fatalf("tree depth %d, want the tier count %d", res.TreeDepth, nw.K)
	}
}

func TestCollectDeterministic(t *testing.T) {
	nw := diskNetwork(t, 800, 6, 209)
	a, err := Collect(nw, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(nw, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Clock != b.Clock || len(a.Collected) != len(b.Collected) {
		t.Fatal("SICP not deterministic for equal seeds")
	}
	c, err := Collect(nw, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Clock == c.Clock {
		t.Log("note: different seeds produced identical clocks (possible but unlikely)")
	}
	// Different seeds still collect the same ID set.
	assertCollectsAll(t, nw, c.Collected, nil)
}

func TestCollectOptionValidation(t *testing.T) {
	nw := diskNetwork(t, 50, 6, 211)
	if _, err := Collect(nw, Options{IDs: make([]uint64, 3)}); err == nil {
		t.Error("ID length mismatch accepted")
	}
	if _, err := Collect(nw, Options{ContentionWindow: -1}); err == nil {
		t.Error("negative contention window accepted")
	}
}

func TestCICPGathersEveryReachableID(t *testing.T) {
	nw := diskNetwork(t, 1200, 6, 213)
	res, err := CollectCICP(nw, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertCollectsAll(t, nw, res.Collected, nil)
}

func TestCICPCostsMoreThanSICP(t *testing.T) {
	// The paper states SICP works better than CICP ([16], §VI-A). Token
	// passing trades the tokens CICP saves for the collisions and widened
	// contention windows CICP pays, so CICP must lose on air time.
	nw := diskNetwork(t, 1500, 6, 215)
	s, err := Collect(nw, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CollectCICP(nw, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Clock.Total() <= s.Clock.Total() {
		t.Errorf("CICP took %d slots <= SICP's %d; contention should cost air time",
			c.Clock.Total(), s.Clock.Total())
	}
	// And collisions waste transmissions: CICP's collided messages must
	// show up as nonzero extra sent bits beyond its useful payload
	// (flood + data + acks = SICP's sent minus SICP's tokens).
	in := func(i int) bool { return nw.Tier[i] > 0 }
	sSum, cSum := s.Meter.Summarize(in), c.Meter.Summarize(in)
	if cSum.TotalSent == 0 || sSum.TotalSent == 0 {
		t.Fatal("no transmissions recorded")
	}
}

func TestCICPValidation(t *testing.T) {
	nw := diskNetwork(t, 50, 6, 217)
	if _, err := CollectCICP(nw, Options{ContentionWindow: 1}); err == nil {
		t.Error("window of 1 accepted for CICP (would livelock)")
	}
	if _, err := CollectCICP(nw, Options{IDs: make([]uint64, 1)}); err == nil {
		t.Error("ID length mismatch accepted")
	}
}

func TestEmptyNetwork(t *testing.T) {
	d := &geom.Deployment{Readers: []geom.Point{{}}, Radius: 30}
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Collect(nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collected) != 0 {
		t.Fatal("collected IDs from an empty network")
	}
	cres, err := CollectCICP(nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Collected) != 0 {
		t.Fatal("CICP collected IDs from an empty network")
	}
}

// TestCollectCompletenessProperty drives the exactly-once collection claim
// through testing/quick: random deployments and ranges, both protocols.
func TestCollectCompletenessProperty(t *testing.T) {
	prop := func(seed uint64, rRaw uint8, contention bool) bool {
		r := 2 + float64(rRaw%9)
		nw := func() *topology.Network {
			d := geom.NewUniformDisk(250, 30, seed)
			n, err := topology.Build(d, 0, topology.PaperRanges(r))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			return n
		}()
		var res *Result
		var err error
		if contention {
			res, err = CollectCICP(nw, Options{Seed: seed})
		} else {
			res, err = Collect(nw, Options{Seed: seed})
		}
		if err != nil {
			t.Fatalf("collect: %v", err)
		}
		// Exactly the reachable IDs, each exactly once.
		want := map[uint64]bool{}
		for i := 0; i < nw.N(); i++ {
			if nw.Tier[i] > 0 {
				want[uint64(i)+1] = true
			}
		}
		if len(res.Collected) != len(want) {
			return false
		}
		seen := map[uint64]bool{}
		for _, id := range res.Collected {
			if !want[id] || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkCollectPaper times the SICP collection a paper trial performs:
// 10^4 tags in a 30 m disk at PaperRanges(r).
func BenchmarkCollectPaper(b *testing.B) {
	d := geom.NewUniformDisk(10000, 30, 1)
	for _, r := range []float64{2, 6, 10} {
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Collect(nw, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectCICPPaper times the CICP collection of a paper trial's
// deployment: 10^4 tags in a 30 m disk at PaperRanges(r). Most of it is
// the sibling groups' contention draws.
func BenchmarkCollectCICPPaper(b *testing.B) {
	d := geom.NewUniformDisk(10000, 30, 1)
	for _, r := range []float64{2, 6} {
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectCICP(nw, Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectN1e5 times the SICP collection of a scale-1e5 survey:
// 10^5 tags at the core scale benchmarks' density (radius 300·√0.1 m,
// R = radius, r′ = radius − 20, r = 2).
func BenchmarkCollectN1e5(b *testing.B) {
	radius := 300 * math.Sqrt(0.1)
	d := geom.NewUniformDisk(100000, radius, 1)
	nw, err := topology.Build(d, 0, topology.Ranges{ReaderToTag: radius, TagToReader: radius - 20, TagToTag: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Collect(nw, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
