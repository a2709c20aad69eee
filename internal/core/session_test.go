package core

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/obs"
	"netags/internal/topology"
)

// lineNetwork builds a 3-tier chain: tags at x = 19 (tier 1), 24 (tier 2),
// 29 (tier 3) with r = 6 so each tag only hears its chain neighbors.
func lineNetwork(t *testing.T) *topology.Network {
	t.Helper()
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 19}, {X: 24}, {X: 29}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func diskNetwork(t testing.TB, n int, r float64, seed uint64) *topology.Network {
	t.Helper()
	d := geom.NewUniformDisk(n, 30, seed)
	nw, err := topology.Build(d, 0, topology.PaperRanges(r))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func fixedPicker(slots map[int][]int) SlotPicker {
	return func(tagIdx int, _ uint64) []int { return slots[tagIdx] }
}

func TestSessionChainDelivery(t *testing.T) {
	nw := lineNetwork(t)
	// Each tag picks a distinct slot; the tier-3 tag's bit must take 3
	// rounds to arrive.
	cfg := Config{
		FrameSize: 16,
		Picker:    fixedPicker(map[int][]int{0: {1}, 1: {5}, 2: {9}}),
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{1, 5, 9} {
		if !res.Bitmap.Get(slot) {
			t.Errorf("slot %d missing from final bitmap", slot)
		}
	}
	if res.Bitmap.Count() != 3 {
		t.Errorf("bitmap has %d bits, want 3", res.Bitmap.Count())
	}
	if res.Rounds != 3 {
		t.Errorf("session took %d rounds, want 3 (tier count)", res.Rounds)
	}
	if res.Truncated {
		t.Error("session reported truncated")
	}
	// Tier-by-tier arrival: rounds deliver exactly one new bit each.
	want := []int{1, 1, 1}
	for i, w := range want {
		if res.NewBusyPerRound[i] != w {
			t.Errorf("round %d delivered %d new bits, want %d", i+1, res.NewBusyPerRound[i], w)
		}
	}
}

func TestSessionTierKArrivesInRoundK(t *testing.T) {
	// Only the tier-3 tag participates: rounds 1 and 2 deliver nothing,
	// round 3 delivers the bit.
	nw := lineNetwork(t)
	cfg := Config{
		FrameSize: 8,
		Picker:    fixedPicker(map[int][]int{2: {4}}),
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bitmap.Get(4) || res.Bitmap.Count() != 1 {
		t.Fatalf("bitmap = %v, want only slot 4", res.Bitmap)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if got := res.NewBusyPerRound; got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("per-round deliveries = %v, want [0 0 1]", got)
	}
}

func TestSessionCollisionsMergeBenignly(t *testing.T) {
	// All three tags pick the same slot: the result is a single busy bit,
	// exactly as if one tag had picked it.
	nw := lineNetwork(t)
	cfg := Config{
		FrameSize: 8,
		Picker:    fixedPicker(map[int][]int{0: {3}, 1: {3}, 2: {3}}),
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bitmap.Get(3) || res.Bitmap.Count() != 1 {
		t.Fatalf("bitmap = %v, want only slot 3", res.Bitmap)
	}
}

func TestSessionEmptyParticipation(t *testing.T) {
	nw := lineNetwork(t)
	cfg := Config{FrameSize: 8, Sampling: 0}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Any() {
		t.Fatal("empty participation produced busy slots")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (single silent round)", res.Rounds)
	}
	if res.Truncated {
		t.Fatal("silent session reported truncated")
	}
}

// TestTheorem1Equivalence is the paper's central correctness claim: for the
// same tag set, seed and sampling, the CCM bitmap equals the bitmap of a
// traditional one-hop RFID system.
func TestTheorem1Equivalence(t *testing.T) {
	for _, r := range []float64{2, 4, 6, 10} {
		for seed := uint64(0); seed < 3; seed++ {
			nw := diskNetwork(t, 2000, r, seed+100)
			cfg := Config{FrameSize: 331, Seed: seed, Sampling: 0.5}
			got, err := RunSession(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DirectBitmap(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Bitmap.Equal(want) {
				t.Errorf("r=%v seed=%d: CCM bitmap differs from traditional bitmap (%d vs %d busy)",
					r, seed, got.Bitmap.Count(), want.Count())
			}
			if got.Truncated {
				t.Errorf("r=%v seed=%d: truncated session", r, seed)
			}
		}
	}
}

// TestTheorem1FullParticipation covers the TRP setting (p = 1) where the
// bitmap is densest and relay pressure highest.
func TestTheorem1FullParticipation(t *testing.T) {
	nw := diskNetwork(t, 3000, 5, 7)
	cfg := Config{FrameSize: 977, Seed: 42, Sampling: 1}
	got, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DirectBitmap(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Bitmap.Equal(want) {
		t.Fatalf("CCM bitmap differs from traditional bitmap (%d vs %d busy)",
			got.Bitmap.Count(), want.Count())
	}
}

func TestSessionRoundsEqualTierDepthOnDisk(t *testing.T) {
	nw := diskNetwork(t, 3000, 6, 11)
	cfg := Config{FrameSize: 512, Seed: 1, Sampling: 1}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With p = 1 every tier contributes, so the session needs exactly K
	// rounds (plus nothing: the checking frame after round K is silent).
	if res.Rounds != nw.K {
		t.Fatalf("rounds = %d, want K = %d", res.Rounds, nw.K)
	}
}

func TestIndicatorVectorStopsRelay(t *testing.T) {
	// Two tier-1 tags in range of each other: tag 0 and tag 1, both at
	// x≈19. Both pick the same slot. With the indicator vector, neither
	// relays the other's bit in round 2 (the reader silences it after
	// round 1), so the session ends after round 1's checking frame.
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 18}, {X: 19}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		FrameSize: 8,
		Picker:    fixedPicker(map[int][]int{0: {2}, 1: {6}}),
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// Each tag sent exactly its own bit (no relay of the other's slot).
	for i := 0; i < 2; i++ {
		if got := res.Meter.Sent(i); got != 1 {
			t.Errorf("tag %d sent %d bits, want 1 (indicator vector must stop relays)", i, got)
		}
	}
}

func TestAblationWithoutIndicatorVectorFloods(t *testing.T) {
	nw := diskNetwork(t, 1500, 6, 13)
	base := Config{FrameSize: 512, Seed: 5, Sampling: 1}
	withV, err := RunSession(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	noV := base
	noV.DisableIndicatorVector = true
	noV.MaxRounds = 4 * nw.Ranges.CheckingFrameLen() // flooding needs slack
	withoutV, err := RunSession(nw, noV)
	if err != nil {
		t.Fatal(err)
	}
	// Same bitmap either way…
	if !withV.Bitmap.Equal(withoutV.Bitmap) {
		t.Error("ablation changed the collected bitmap")
	}
	// …but flooding costs strictly more transmissions.
	in := func(i int) bool { return nw.Tier[i] > 0 }
	sWith := withV.Meter.Summarize(in)
	sWithout := withoutV.Meter.Summarize(in)
	if sWithout.TotalSent <= sWith.TotalSent {
		t.Errorf("flooding sent %d bits <= indicator-vector %d bits; ablation should cost more",
			sWithout.TotalSent, sWith.TotalSent)
	}
}

func TestSessionTruncationReported(t *testing.T) {
	// Force MaxRounds below the tier depth: the tier-3 bit cannot arrive.
	nw := lineNetwork(t)
	cfg := Config{
		FrameSize: 8,
		Picker:    fixedPicker(map[int][]int{2: {4}}),
		MaxRounds: 2,
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Get(4) {
		t.Fatal("bit arrived despite round bound")
	}
	if !res.Truncated {
		t.Fatal("truncation not reported")
	}
}

// TestPendingWords pins the two fates of a multi-bit pending word: tag A
// (x = 19, tier 1) and tag D (x = 28, tier 3) sit on either side of B and C
// (x = 23 and 24, tier 2), and one transmission puts two or more of them in
// one pending word. Each case runs on both channels, the lossy one at a
// loss that never drops. The reliable channel never queues the dead word:
// it skips delivery into a slot the reader hears in the same frame.
func TestPendingWords(t *testing.T) {
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 19}, {X: 23}, {X: 24}, {X: 28}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := []int16{nw.Tier[0], nw.Tier[1], nw.Tier[2], nw.Tier[3]}; got[0] != 1 || got[1] != 2 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("fixture broken: tiers %v, want [1 2 2 3]", got)
	}
	for _, loss := range []float64{0, math.SmallestNonzeroFloat64} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			// A's slot 3 reaches B and C as one word in round 1, and the
			// reader, which hears A, silences slot 3 before they relay it:
			// the word is dead. It never transmits, C[1] has no responder,
			// and the session ends untruncated after one round. The
			// reliable channel does not deliver it at all, so slot 3's
			// strip holds only A's pick.
			cfg := Config{FrameSize: 8, Picker: fixedPicker(map[int][]int{0: {3}}),
				LossProb: loss, LossSeed: 1}
			var s session
			s.init(nw, cfg, energy.NewMeter(nw.N()))
			s.seedInitialPicks()
			s.runRound(1)
			if loss == 0 {
				if len(s.pend) != 0 {
					t.Errorf("%d pending words after round 1, want 0", len(s.pend))
				}
				a := s.rank[0]
				for w, b := range s.heard[3*s.words : 4*s.words] {
					want := uint64(0)
					if int32(w) == a>>6 {
						want = 1 << (uint(a) & 63)
					}
					if b != want {
						t.Errorf("slot 3 strip word %d = %#x, want %#x (A's bit only)", w, b, want)
					}
				}
			} else {
				heard := 0
				for _, e := range s.pend {
					if e.slot != 3 || !s.silenced(e.slot) {
						t.Errorf("pending entry %+v, want slot 3, silenced", e)
					}
					heard += bits.OnesCount64(e.bits)
				}
				if heard != 2 {
					t.Errorf("%d pending pairs after round 1, want B and C", heard)
				}
				if len(s.pend) != 1 {
					t.Errorf("%d pending words, want 1", len(s.pend))
				}
			}
			res, err := RunSession(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != 1 || res.Truncated || !res.Bitmap.Get(3) {
				t.Errorf("rounds=%d truncated=%v slot 3=%v, want 1, false, true",
					res.Rounds, res.Truncated, res.Bitmap.Get(3))
			}
			for i, want := range []int64{1, 0, 0, 0} {
				if got := res.Meter.Sent(i); got != want {
					t.Errorf("tag %d sent %d bits, want %d", i, got, want)
				}
			}

			// B's slot 5 reaches A, C and D as one word, which stays live:
			// with a one-round bound the session ends with it pending.
			cfg.Picker, cfg.MaxRounds = fixedPicker(map[int][]int{1: {5}}), 1
			res, err = RunSession(nw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != 1 || !res.Truncated || res.Bitmap.Get(5) {
				t.Errorf("rounds=%d truncated=%v slot 5=%v, want 1, true, false",
					res.Rounds, res.Truncated, res.Bitmap.Get(5))
			}
		})
	}
}

// TestReliableChannelQueuesNoDeadWords pins the invariant that lets
// deliverBySlot count every pending word as live: on the reliable channel
// with the indicator vector on, no round leaves a pending entry in a
// silenced slot. It steps paper-like sessions (full and sampled
// participation) and sessions whose tag counts straddle a 64-tag word
// through the round loop by hand and checks the pending set after every
// round, up to the session's own stopping point.
func TestReliableChannelQueuesNoDeadWords(t *testing.T) {
	type tc struct {
		name string
		nw   *topology.Network
		cfg  Config
	}
	var cases []tc
	for _, r := range []float64{2, 6} {
		nw := diskNetwork(t, 2000, r, 21)
		cases = append(cases,
			tc{fmt.Sprintf("trp-like/r=%g", r), nw, Config{FrameSize: 646, Seed: 3, Sampling: 1}},
			tc{fmt.Sprintf("gmle-like/r=%g", r), nw, Config{FrameSize: 334, Seed: 3, Sampling: 0.27}})
	}
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		cases = append(cases, tc{fmt.Sprintf("n=%d", n), diskNetwork(t, n, 8, uint64(n)),
			Config{FrameSize: 40, Seed: uint64(n), Sampling: 1}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.validate(c.nw); err != nil {
				t.Fatal(err)
			}
			var s session
			s.init(c.nw, c.cfg, energy.NewMeter(c.nw.N()))
			s.seedInitialPicks()
			rounds := 0
			for round := 1; round <= c.cfg.maxRounds(c.nw); round++ {
				s.runRound(round)
				rounds = round
				for _, e := range s.pend {
					if s.silenced(e.slot) {
						t.Fatalf("round %d: pending entry %+v in a silenced slot", round, e)
					}
				}
				if !s.runCheckingFrame(round) {
					break
				}
			}
			if rounds < 2 {
				t.Errorf("session ran %d rounds, want at least 2 to exercise relays", rounds)
			}
		})
	}
}

func TestCheckingFrameTooShortTerminatesEarly(t *testing.T) {
	// With L_c = 1 the reader hears nothing in the single checking slot
	// after round 1 (the pending tag is at tier 3, two hops from any
	// tier-1 responder), so it wrongly ends the session.
	nw := lineNetwork(t)
	cfg := Config{
		FrameSize:        8,
		Picker:           fixedPicker(map[int][]int{2: {4}}),
		CheckingFrameLen: 1,
		MaxRounds:        10,
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Get(4) {
		t.Fatal("bit should not have arrived")
	}
	if !res.Truncated {
		t.Fatal("early termination must be reported as truncation")
	}
}

func TestSessionEnergyAccounting(t *testing.T) {
	// Single tier-1 tag, one pick: it sends exactly 1 frame bit plus 1
	// checking-frame response; it monitors f-1 slots in round 1 and
	// receives the indicator vector.
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 10}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	const f = 96 // one indicator segment
	cfg := Config{FrameSize: f, Picker: fixedPicker(map[int][]int{0: {7}})}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	// Sent: 1 frame bit + 1 checking response (it had pending work before
	// round 1's frame ran? no — pending is consumed by the frame, so the
	// checking frame after round 1 is silent). Expect exactly 1.
	if got := res.Meter.Sent(0); got != 1 {
		t.Errorf("sent = %d bits, want 1", got)
	}
	// Received: (f-1) monitored slots in round 1 + 96-bit indicator
	// segment + L_c checking slots (the tag listens through the whole
	// silent checking frame).
	lc := int64(nw.Ranges.CheckingFrameLen())
	want := int64(f-1) + 96 + lc
	if got := res.Meter.Received(0); got != want {
		t.Errorf("received = %d bits, want %d", got, want)
	}
	// Clock: 1 request + f frame slots + 1 indicator segment + L_c
	// checking slots.
	if got, want := res.Clock.LongSlots, int64(2); got != want {
		t.Errorf("reader slots = %d, want %d", got, want)
	}
	if got, want := res.Clock.ShortSlots, int64(f)+lc; got != want {
		t.Errorf("tag slots = %d, want %d", got, want)
	}
}

func TestSessionClockFormula(t *testing.T) {
	// On a multi-tier network with p=1, the clock should track eq. (3):
	// K rounds of (f + ⌈f/96⌉ + checking slots) plus K request slots.
	nw := diskNetwork(t, 2000, 6, 17)
	const f = 512
	cfg := Config{FrameSize: f, Seed: 3, Sampling: 1}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := int64(res.Rounds)
	segs := int64((f + 95) / 96)
	var check int64
	for _, c := range res.CheckSlotsPerRound {
		check += int64(c)
	}
	wantTag := k*int64(f) + check
	wantReader := k * (1 + segs)
	if res.Clock.ShortSlots != wantTag || res.Clock.LongSlots != wantReader {
		t.Fatalf("clock = %+v, want tag=%d reader=%d", res.Clock, wantTag, wantReader)
	}
}

func TestLossyChannelDegradesDelivery(t *testing.T) {
	nw := diskNetwork(t, 2000, 4, 19)
	base := Config{FrameSize: 512, Seed: 9, Sampling: 1}
	clean, err := RunSession(nw, base)
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	lossy.LossProb = 0.9
	lossy.LossSeed = 1
	degraded, err := RunSession(nw, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Bitmap.Count() >= clean.Bitmap.Count() {
		t.Errorf("90%% loss delivered %d busy bits, reliable delivered %d; loss should reduce delivery",
			degraded.Bitmap.Count(), clean.Bitmap.Count())
	}
	// The lossy bitmap must still be a subset of the truth: loss can only
	// suppress busy observations, never invent them.
	if !clean.Bitmap.ContainsAll(degraded.Bitmap) {
		t.Error("lossy bitmap contains bits absent from the reliable bitmap")
	}
}

func TestConfigValidation(t *testing.T) {
	nw := lineNetwork(t)
	bad := []Config{
		{FrameSize: 0},
		{FrameSize: -5},
		{FrameSize: 8, Sampling: -0.1},
		{FrameSize: 8, Sampling: 1.1},
		{FrameSize: 8, IDs: []uint64{1}},
		{FrameSize: 8, LossProb: -1},
		{FrameSize: 8, LossProb: 1},
		{FrameSize: 8, MaxRounds: -1},
	}
	// NaN passes every ordered comparison false: a NaN sampling
	// probability once ran every tag silent (an all-zero bitmap) and a NaN
	// loss probability the reliable channel.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad, Config{FrameSize: 8, Sampling: x}, Config{FrameSize: 8, Sampling: 1, LossProb: x})
	}
	for i, cfg := range bad {
		if _, err := RunSession(nw, cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestCustomIDsChangeSlots(t *testing.T) {
	nw := lineNetwork(t)
	a, err := RunSession(nw, Config{FrameSize: 64, Seed: 1, Sampling: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSession(nw, Config{FrameSize: 64, Seed: 1, Sampling: 1, IDs: []uint64{1001, 1002, 1003}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Bitmap.Equal(b.Bitmap) {
		t.Fatal("different ID sets produced identical bitmaps (suspicious)")
	}
}

func TestOutOfRangePickerSlotsIgnored(t *testing.T) {
	nw := lineNetwork(t)
	cfg := Config{
		FrameSize: 8,
		Picker:    fixedPicker(map[int][]int{0: {-1, 3, 99}}),
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Count() != 1 || !res.Bitmap.Get(3) {
		t.Fatalf("bitmap = %v, want only slot 3", res.Bitmap)
	}
}

func TestUnreachableTagsExcluded(t *testing.T) {
	// Tag 1 is disconnected; its pick must not appear even though it
	// "transmits" into the void.
	d := &geom.Deployment{
		Tags:    []geom.Point{{X: 10}, {X: 29}},
		Readers: []geom.Point{{}},
		Radius:  30,
	}
	nw, err := topology.Build(d, 0, topology.PaperRanges(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{FrameSize: 8, Picker: fixedPicker(map[int][]int{0: {1}, 1: {2}})}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Get(2) {
		t.Fatal("unreachable tag's bit reached the reader")
	}
	if !res.Bitmap.Get(1) {
		t.Fatal("reachable tag's bit missing")
	}
	want, err := DirectBitmap(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bitmap.Equal(want) {
		t.Fatal("DirectBitmap disagrees on unreachable-tag handling")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	nw := diskNetwork(t, 1000, 6, 23)
	cfg := Config{FrameSize: 256, Seed: 8, Sampling: 0.7}
	a, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Bitmap.Equal(b.Bitmap) || a.Rounds != b.Rounds || a.Clock != b.Clock {
		t.Fatal("identical configs produced different sessions")
	}
	for i := 0; i < nw.N(); i++ {
		if a.Meter.Sent(i) != b.Meter.Sent(i) || a.Meter.Received(i) != b.Meter.Received(i) {
			t.Fatalf("tag %d: nondeterministic energy accounting", i)
		}
	}
}

// TestRoundTrace: the session emits one KindRound event per round whose
// fields narrate the tier-by-tier convergence and agree with the result.
func TestRoundTrace(t *testing.T) {
	nw := lineNetwork(t)
	mem := obs.NewMemory()
	cfg := Config{
		FrameSize: 16,
		Picker:    fixedPicker(map[int][]int{0: {1}, 1: {5}, 2: {9}}),
		Tracer:    mem,
	}
	res, err := RunSession(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []obs.Event
	for _, ev := range mem.Events() {
		if ev.Kind == obs.KindRound {
			rounds = append(rounds, ev)
		}
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("%d round events for %d rounds", len(rounds), res.Rounds)
	}
	// Round 1: all three tags transmit their own picks; the reader learns
	// one bit; more data is pending.
	if rounds[0].Round != 1 || rounds[0].Transmitters != 3 || rounds[0].Bits != 3 {
		t.Fatalf("round 1 event = %+v", rounds[0])
	}
	if rounds[0].NewBusy != 1 || !rounds[0].Pending {
		t.Fatalf("round 1 event = %+v", rounds[0])
	}
	// Last round: everything delivered, nothing pending.
	last := rounds[len(rounds)-1]
	if last.Pending || last.KnownBusy != 3 {
		t.Fatalf("final event = %+v", last)
	}
	// Event data must agree with the result diagnostics.
	for i, ev := range rounds {
		if ev.NewBusy != res.NewBusyPerRound[i] || ev.CheckSlots != res.CheckSlotsPerRound[i] {
			t.Fatalf("round event %d disagrees with result diagnostics", i)
		}
	}
}

// TestTheorem1Property drives the equivalence claim through testing/quick:
// random deployments, ranges, frame sizes, seeds and sampling probabilities
// must all produce a CCM bitmap identical to the one-hop bitmap.
func TestTheorem1Property(t *testing.T) {
	prop := func(seed uint64, frameRaw uint16, sampRaw, rRaw uint8) bool {
		frame := 16 + int(frameRaw)%512
		sampling := float64(sampRaw%101) / 100
		r := 2 + float64(rRaw%9) // 2..10 m
		d := geom.NewUniformDisk(300, 30, seed)
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		// Theorem 1 presumes a complete session; sparse random graphs can
		// have detour paths deeper than the default L_c bound, so provision
		// generously.
		cfg := Config{
			FrameSize:        frame,
			Seed:             seed,
			Sampling:         sampling,
			CheckingFrameLen: 64,
			MaxRounds:        64,
		}
		got, err := RunSession(nw, cfg)
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		want, err := DirectBitmap(nw, cfg)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		return !got.Truncated && got.Bitmap.Equal(want)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSessionInvariantsProperty checks structural invariants on random
// sessions: bitmap ⊆ direct bitmap is equality (no phantom bits), rounds
// within the bound, meters non-negative, and the bitmap equals the union of
// the per-round deliveries.
func TestSessionInvariantsProperty(t *testing.T) {
	prop := func(seed uint64, rRaw uint8) bool {
		r := 2 + float64(rRaw%9)
		d := geom.NewUniformDisk(200, 30, seed)
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		cfg := Config{FrameSize: 128, Seed: seed, Sampling: 1}
		res, err := RunSession(nw, cfg)
		if err != nil {
			t.Fatalf("session: %v", err)
		}
		if res.Rounds < 1 || res.Rounds > cfg.maxRounds(nw) {
			return false
		}
		totalNew := 0
		for _, nb := range res.NewBusyPerRound {
			totalNew += nb
		}
		if totalNew != res.Bitmap.Count() {
			return false
		}
		for i := 0; i < nw.N(); i++ {
			if res.Meter.Sent(i) < 0 || res.Meter.Received(i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
