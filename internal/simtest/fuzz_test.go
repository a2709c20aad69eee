package simtest

import (
	"math"
	"testing"

	"netags/internal/core"
	"netags/internal/prng"
)

// wordBoundarySeeds are NewScenarioTags inputs whose in-system tag count is
// 63, 64, 65, 127 and 129, each with at least three out-of-system tags and
// three or more tiers.
var wordBoundarySeeds = []struct {
	seed uint64
	tags uint8
}{
	{85, 90},   // 63 in system, 27 out
	{1, 72},    // 64 in, 8 out
	{36, 70},   // 65 in, 5 out
	{296, 150}, // 127 in, 23 out
	{132, 150}, // 129 in, 21 out
}

// FuzzSession throws fuzzer-chosen scenarios and session configs at the full
// CCM stack and holds every run to the invariants the property suites pin:
// bit-identical replay, soundness against the direct bitmap (with equality
// and guaranteed termination on the reliable channel), the air-time clock
// identity, and inert out-of-system tags. A reliable run must also match
// the per-pair lossy loop at a loss that never drops (as in
// TestMetamorphicSilentLoss), which pits the row-mask kernel against the
// row walk on every input. A non-zero tags pins a uniform scenario to that
// many tags (NewScenarioTags); zero takes the generator's own scenario. A
// lossBits of 32768 or more turns the indicator vector off, as the golden
// no-indicator variant does, so the reliable kernel's full delivery, which
// the indicator's skip of heard slots bypasses, meets the row walk too.
// Without the vector a slot floods until every tag of its component has
// heard it, one hop per round, so those sessions may run up to one round
// per tag: the golden variant's 4(K+2) rounds cut the flood of the
// noindicator-long-flood corpus entry (93 tags, K = 1, 13 rounds).
func FuzzSession(f *testing.F) {
	f.Add(uint64(1), uint16(32), uint16(0), uint16(0), uint8(0))
	f.Add(uint64(0xda53caa1dd258d4), uint16(128), uint16(1), uint16(0), uint8(0))
	f.Add(uint64(7), uint16(8), uint16(2), uint16(431), uint8(0))
	f.Add(uint64(0xfeedface), uint16(299), uint16(5), uint16(900), uint8(0))
	// Reliable runs whose in-system tag count sits on either side of a
	// 64-tag word boundary, each with out-of-system tags as well.
	for _, c := range wordBoundarySeeds {
		f.Add(c.seed, uint16(200), uint16(0), uint16(0), c.tags)
	}
	// The flooding ablation on the reliable channel (33250 % 950 == 0).
	f.Add(uint64(1), uint16(32), uint16(0), uint16(33250), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, frameBits, styleBits, lossBits uint16, tags uint8) {
		sc := NewScenario(seed)
		if tags != 0 {
			sc = NewScenarioTags(seed, int(tags))
		}
		k := sc.Network.K
		cfg := core.Config{
			FrameSize:        1 + int(frameBits)%300,
			Seed:             prng.DeriveSeed(seed, uint64(styleBits)),
			CheckingFrameLen: k + 2,
			MaxRounds:        k + 2,
			LossProb:         float64(lossBits%950) / 1000,
			LossSeed:         prng.DeriveSeed(seed, uint64(lossBits)),
		}
		if lossBits >= 32768 {
			cfg.DisableIndicatorVector = true
			cfg.MaxRounds = sc.Network.N() + 2
		}
		switch styleBits % 3 {
		case 0:
			cfg.Sampling = 1
		case 1:
			cfg.Sampling = 0.05 + 0.9*float64(styleBits%64)/64
		case 2:
			cfg.Sampling = 1
			cfg.IDs = RandomIDs(sc.Source(uint64(styleBits)), sc.Network.N())
		}

		res, err := core.RunSession(sc.Network, cfg)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		again, err := core.RunSession(sc.Network, cfg)
		if err != nil {
			t.Fatalf("seed %#x: replay: %v", seed, err)
		}
		if !again.Bitmap.Equal(res.Bitmap) || again.Rounds != res.Rounds ||
			again.Truncated != res.Truncated || again.Clock != res.Clock {
			t.Fatalf("seed %#x: replay diverged", seed)
		}

		direct, err := core.DirectBitmap(sc.Network, cfg)
		if err != nil {
			t.Fatalf("seed %#x: direct: %v", seed, err)
		}
		if !direct.ContainsAll(res.Bitmap) {
			t.Fatalf("seed %#x: session reported a slot no reachable tag picked", seed)
		}
		if cfg.LossProb == 0 {
			if res.Truncated {
				t.Fatalf("seed %#x: truncated on a reliable channel with L_c = K+2", seed)
			}
			if !res.Bitmap.Equal(direct) {
				t.Fatalf("seed %#x: Theorem 1 violated on a reliable channel", seed)
			}
			silent := cfg
			silent.LossProb, silent.LossSeed = math.SmallestNonzeroFloat64, seed
			lres, err := core.RunSession(sc.Network, silent)
			if err != nil {
				t.Fatalf("seed %#x: silent loss: %v", seed, err)
			}
			if got, want := fingerprint(lres), fingerprint(res); got != want {
				t.Fatalf("seed %#x: per-pair delivery fingerprint %s != row-mask delivery %s", seed, got, want)
			}
		}

		sessionClockInvariant(t, sc, cfg, res)
		for i := 0; i < sc.Network.N(); i++ {
			if res.Meter.Sent(i) < 0 || res.Meter.Received(i) < 0 {
				t.Fatalf("seed %#x: tag %d negative meter", seed, i)
			}
			if sc.Network.Tier[i] == 0 && (res.Meter.Sent(i) != 0 || res.Meter.Received(i) != 0) {
				t.Fatalf("seed %#x: out-of-system tag %d metered", seed, i)
			}
		}
	})
}
