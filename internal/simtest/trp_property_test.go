package simtest

import (
	"testing"

	"netags/internal/core"
	"netags/internal/prng"
	"netags/internal/topology"
	"netags/internal/trp"
)

// detectTRP runs one TRP execution the way the facade's DetectMissing does:
// the reader plans with the inventory, a CCM session with p = 1 collects the
// bitmap from the deployed tags (presentIDs[i] is tag i's ID), and the plan
// checks it. cfg supplies the request (FrameSize, Seed), the channel and
// the session bounds.
func detectTRP(nw *topology.Network, inventory, presentIDs []uint64, cfg core.Config) (trp.Detection, error) {
	plan, err := trp.NewPlan(inventory, cfg.FrameSize, cfg.Seed)
	if err != nil {
		return trp.Detection{}, err
	}
	cfg.Sampling, cfg.IDs = 1, presentIDs
	res, err := core.RunSession(nw, cfg)
	if err != nil {
		return trp.Detection{}, err
	}
	return plan.Detect(res.Bitmap)
}

// suspectSet folds a suspect list into a set, failing on duplicates.
func suspectSet(t *testing.T, sc *Scenario, ids []uint64) map[uint64]bool {
	t.Helper()
	set := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if set[id] {
			t.Errorf("%v seed %#x: suspect %#x reported twice", sc.Shape, sc.Seed, id)
		}
		set[id] = true
	}
	return set
}

// TestTRPAccusationsExact holds missing-tag detection to the exact
// set-difference oracle: on a reliable channel, the suspect list is exactly
// the inventory IDs whose slot no reachable present tag occupies — no more
// (every accusation is provable) and no less (every provable absence is
// accused). Removed tags, present-but-unreachable tags, and hash collisions
// between missing and present tags are all decided by the same rule.
func TestTRPAccusationsExact(t *testing.T) {
	ForEach(t, 0x7690, func(t *testing.T, sc *Scenario) {
		n := sc.Network.N()
		src := sc.Source(30)
		inventory := RandomIDs(src, n)
		// Remove a random subset — sometimes nobody, sometimes everybody.
		gone := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if src.Float64() < 0.25 {
				gone = append(gone, i)
			}
		}
		present, orig := sc.Deployment.Remove(gone)
		pnw, err := buildLike(sc, present)
		if err != nil {
			t.Fatalf("%v seed %#x: present build: %v", sc.Shape, sc.Seed, err)
		}
		presentIDs := make([]uint64, len(orig))
		for ni, oi := range orig {
			presentIDs[ni] = inventory[oi]
		}
		f := 32 + src.Intn(480)
		seed := src.Uint64()
		out, err := detectTRP(pnw, inventory, presentIDs, core.Config{
			FrameSize:        f,
			Seed:             seed,
			CheckingFrameLen: pnw.K + 2,
		})
		if err != nil {
			t.Fatalf("%v seed %#x: trp: %v", sc.Shape, sc.Seed, err)
		}

		// Brute-force oracle, independent of core and trp internals.
		tiers := BruteTiers(present, 0, sc.Ranges, sc.Obstacles)
		busy := make(map[int]bool)
		for i, id := range presentIDs {
			if tiers[i] > 0 {
				busy[prng.SlotOf(id, seed, f)] = true
			}
		}
		want := make(map[uint64]bool)
		for _, id := range inventory {
			if !busy[prng.SlotOf(id, seed, f)] {
				want[id] = true
			}
		}

		got := suspectSet(t, sc, out.Suspects)
		for id := range got {
			if !want[id] {
				t.Errorf("%v seed %#x: tag %#x accused but its slot is provably busy", sc.Shape, sc.Seed, id)
			}
		}
		for id := range want {
			if !got[id] {
				t.Errorf("%v seed %#x: tag %#x provably absent but not accused", sc.Shape, sc.Seed, id)
			}
		}
		if out.Missing != (len(want) > 0) {
			t.Errorf("%v seed %#x: Missing=%v with %d provable absences", sc.Shape, sc.Seed, out.Missing, len(want))
		}
		// presentIDs ⊆ inventory, so no busy slot can be unexpected.
		if len(out.UnexpectedBusy) != 0 {
			t.Errorf("%v seed %#x: %d unexpected busy slots on a clean inventory", sc.Shape, sc.Seed, len(out.UnexpectedBusy))
		}
	})
}

// TestTRPLossOnlyAddsAccusations: the lossy channel can erase busy slots but
// never invent them, so the reliable run's suspect set is a subset of any
// lossy run's with the same request. (This is why TRP's "provably absent"
// guarantee is stated for the reliable channel only.)
func TestTRPLossOnlyAddsAccusations(t *testing.T) {
	ForEach(t, 0x7691, func(t *testing.T, sc *Scenario) {
		n := sc.Network.N()
		src := sc.Source(31)
		inventory := RandomIDs(src, n)
		presentIDs := inventory // nobody actually missing: every accusation is loss- or reach-induced
		cfg := core.Config{
			FrameSize:        32 + src.Intn(480),
			Seed:             src.Uint64(),
			CheckingFrameLen: sc.Network.K + 2,
		}
		reliable, err := detectTRP(sc.Network, inventory, presentIDs, cfg)
		if err != nil {
			t.Fatalf("%v seed %#x: reliable: %v", sc.Shape, sc.Seed, err)
		}
		cfg.LossProb = 0.1 + 0.8*src.Float64()
		cfg.LossSeed = src.Uint64()
		lossy, err := detectTRP(sc.Network, inventory, presentIDs, cfg)
		if err != nil {
			t.Fatalf("%v seed %#x: lossy: %v", sc.Shape, sc.Seed, err)
		}
		got := suspectSet(t, sc, lossy.Suspects)
		for _, id := range reliable.Suspects {
			if !got[id] {
				t.Errorf("%v seed %#x: loss %.2f masked reliable accusation of %#x",
					sc.Shape, sc.Seed, cfg.LossProb, id)
			}
		}
	})
}

// TestTRPFrameSizingMeetsRequirement checks the analytical frame sizing
// against its own exact probability form over a grid: the returned f meets
// requirement (14) and is not trivially oversized (f−1 misses it, i.e. the
// size is minimal).
func TestTRPFrameSizingMeetsRequirement(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		for _, m := range []int{1, 5, 50} {
			for _, delta := range []float64{0.9, 0.95, 0.99} {
				if m >= n {
					continue
				}
				f, err := trp.FrameSizeFor(n, m, delta)
				if err != nil {
					t.Fatalf("n=%d m=%d delta=%v: %v", n, m, delta, err)
				}
				if p := trp.DetectionProbability(n, m, f); p < delta {
					t.Errorf("n=%d m=%d delta=%v: f=%d detects with %v < delta", n, m, delta, f, p)
				}
				if f > 1 {
					if p := trp.DetectionProbability(n, m, f-1); p >= delta {
						t.Errorf("n=%d m=%d delta=%v: f=%d not minimal (f-1 already meets delta)", n, m, delta, f)
					}
				}
			}
		}
	}
}
