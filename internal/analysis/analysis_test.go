package analysis

import (
	"math"
	"testing"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/topology"
	"netags/internal/trp"
)

// paperModel returns the §VI-A setting at the given inter-tag range, with
// TRP parameters (p = 1) unless overridden.
func paperModel(r float64) Model {
	return Model{
		Ranges:    topology.PaperRanges(r),
		Density:   10000 / (math.Pi * 900),
		FrameSize: trp.PaperFrameSize,
		Sampling:  1,
	}
}

func TestValidate(t *testing.T) {
	if err := paperModel(6).Validate(); err != nil {
		t.Fatalf("paper model invalid: %v", err)
	}
	bad := []Model{
		{Ranges: topology.PaperRanges(6), Density: 0, FrameSize: 10, Sampling: 1},
		{Ranges: topology.PaperRanges(6), Density: 1, FrameSize: 0, Sampling: 1},
		{Ranges: topology.PaperRanges(6), Density: 1, FrameSize: 10, Sampling: 0},
		{Ranges: topology.PaperRanges(6), Density: 1, FrameSize: 10, Sampling: 1.2},
		{Ranges: topology.Ranges{}, Density: 1, FrameSize: 10, Sampling: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestChi(t *testing.T) {
	m := paperModel(6)
	if got := m.Chi(0); got != 0 {
		t.Fatalf("Chi(0) = %v, want 0", got)
	}
	// One tag picks exactly one slot.
	if got := m.Chi(1); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Chi(1) = %v, want 1", got)
	}
	// Monotone and bounded by f.
	prev := 0.0
	for _, n := range []float64{10, 100, 1000, 10000, 1e6} {
		c := m.Chi(n)
		if c <= prev || c > float64(m.FrameSize) {
			t.Fatalf("Chi(%v) = %v not in (prev, f]", n, c)
		}
		prev = c
	}
}

func TestGammaPrimeGrowth(t *testing.T) {
	m := paperModel(6)
	if m.GammaPrime(0) != 0 {
		t.Fatal("Γ'_0 must be empty")
	}
	// Γ'_1 covers the r'-disk: ρπr'².
	want := m.Density * math.Pi * 400
	if got := m.GammaPrime(1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Γ'_1 = %v, want %v", got, want)
	}
	for i := 1; i < 5; i++ {
		if m.GammaPrime(i+1) <= m.GammaPrime(i) {
			t.Fatalf("Γ' not growing at i=%d", i)
		}
	}
}

func TestGammaClippedByDeployment(t *testing.T) {
	m := paperModel(6)
	// A tier-1 tag's 1-hop disk lies fully inside the deployment: full area.
	full := m.Density * geom.DiskArea(6)
	if got := m.Gamma(1, 1); math.Abs(got-full) > 1e-6 {
		t.Fatalf("Γ_1 (tier 1) = %v, want full disk %v", got, full)
	}
	// A tier-3 tag sits at r0 = 20 + 2·6 = 32 > R = 30... the model places
	// it at the ring's outer edge, so its hop disk must be clipped.
	clipped := m.Gamma(3, 1)
	if clipped >= full {
		t.Fatalf("Γ_1 (tier 3) = %v not clipped below %v", clipped, full)
	}
	if clipped <= 0 {
		t.Fatalf("Γ_1 (tier 3) = %v must stay positive", clipped)
	}
}

func TestGammaUnionBounds(t *testing.T) {
	m := paperModel(6)
	for k := 1; k <= m.Tiers(); k++ {
		for i := 0; i < m.Tiers(); i++ {
			u := m.GammaUnion(k, i)
			g, gp := m.Gamma(k, i), m.GammaPrime(i)
			if u < math.Max(g, gp)-1e-9 {
				t.Fatalf("union %v below max component (k=%d i=%d)", u, k, i)
			}
			if u > g+gp+1e-9 {
				t.Fatalf("union %v above sum of components (k=%d i=%d)", u, k, i)
			}
		}
	}
}

func TestGammaUnionDisjointCaseSplit(t *testing.T) {
	// For i ≤ k/2 the disks are disjoint and the union is the plain sum
	// (eq. (10) upper case).
	m := paperModel(2) // K = 6: deep network, room for disjoint cases
	k, i := 6, 2       // i ≤ k/2
	u := m.GammaUnion(k, i)
	want := m.Gamma(k, i) + m.GammaPrime(i)
	if math.Abs(u-want) > 1e-9 {
		t.Fatalf("disjoint union = %v, want plain sum %v", u, want)
	}
	// For i > k/2 they overlap and the union must be strictly smaller.
	k, i = 2, 2
	if u := m.GammaUnion(k, i); u >= m.Gamma(k, i)+m.GammaPrime(i)-1e-9 {
		t.Fatalf("overlapping union %v not reduced below the sum", u)
	}
}

func TestExecutionTimeMatchesPaperValues(t *testing.T) {
	// Eq. (3) at the paper's parameters reproduces the §VI-B numbers:
	// r=6 → K=3, TRP f=3228: 3·(3228+34+6) = 9804 ≈ 9747 (Fig. 4);
	// GMLE f=1671: 3·(1671+18+6) = 5085 ≈ 5076.
	trpModel := paperModel(6)
	if got := trpModel.ExecutionTimeSlots(); math.Abs(got-9804) > 1 {
		t.Fatalf("TRP execution time = %v, want 9804", got)
	}
	gmleModel := trpModel
	gmleModel.FrameSize = 1671
	gmleModel.Sampling = 1.59 * 1671 / 10000
	if got := gmleModel.ExecutionTimeSlots(); math.Abs(got-5085) > 1 {
		t.Fatalf("GMLE execution time = %v, want 5085", got)
	}
}

func TestTierProbabilitySumsToOne(t *testing.T) {
	for _, r := range []float64{2, 4, 6, 8, 10} {
		m := paperModel(r)
		sum := 0.0
		for k := 1; k <= m.Tiers(); k++ {
			sum += m.TierProbability(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("r=%v: tier probabilities sum to %v", r, sum)
		}
	}
	if paperModel(6).TierProbability(0) != 0 || paperModel(6).TierProbability(99) != 0 {
		t.Fatal("out-of-range tiers must have probability 0")
	}
}

func TestMonitorAndSentPositive(t *testing.T) {
	m := paperModel(6)
	for k := 1; k <= m.Tiers(); k++ {
		if got := m.ReceivedBits(k); got <= 0 {
			t.Fatalf("ReceivedBits(%d) = %v", k, got)
		}
		if got := m.SentBits(k); got <= 0 {
			t.Fatalf("SentBits(%d) = %v", k, got)
		}
	}
}

func TestSentBitsRoundOne(t *testing.T) {
	m := paperModel(6)
	m.Sampling = 0.25
	if got := m.SentSlotsRound(2, 1); got != 0.25 {
		t.Fatalf("round-1 sent slots = %v, want p", got)
	}
}

// TestModelTracksSimulation compares the closed forms with actual CCM
// sessions at paper scale. The model idealizes (tags at ring edges, mean
// field), so we only demand agreement within a factor of 2 on averages —
// the same fidelity the paper's own Fig. 4 discussion implies.
func TestModelTracksSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation")
	}
	const n = 10000
	d := geom.NewUniformDisk(n, 30, 5)
	for _, r := range []float64{4, 6} {
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			t.Fatal(err)
		}
		// The single §VI-B TRP session: f = 3228 with p = 1.
		res, err := core.RunSession(nw, core.Config{FrameSize: trp.PaperFrameSize, Seed: 3, Sampling: 1})
		if err != nil {
			t.Fatal(err)
		}
		in := func(i int) bool { return nw.Tier[i] > 0 }
		sum := res.Meter.Summarize(in)

		m := paperModel(r)
		predSent, predRecv := m.AvgSentBits(), m.AvgReceivedBits()
		if ratio := sum.AvgSent / predSent; ratio < 0.5 || ratio > 2 {
			t.Errorf("r=%v: simulated avg sent %.1f vs model %.1f (ratio %.2f)",
				r, sum.AvgSent, predSent, ratio)
		}
		if ratio := sum.AvgReceived / predRecv; ratio < 0.5 || ratio > 2 {
			t.Errorf("r=%v: simulated avg received %.1f vs model %.1f (ratio %.2f)",
				r, sum.AvgReceived, predRecv, ratio)
		}
		simTime := float64(res.Clock.Total())
		if ratio := simTime / m.ExecutionTimeSlots(); ratio < 0.8 || ratio > 1.25 {
			t.Errorf("r=%v: simulated time %v vs model %v", r, simTime, m.ExecutionTimeSlots())
		}
	}
}
