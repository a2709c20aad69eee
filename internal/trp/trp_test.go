package trp

import (
	"math"
	"testing"

	"netags/internal/bitmap"
	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/prng"
	"netags/internal/topology"
)

func diskNetwork(t *testing.T, d *geom.Deployment, r float64) *topology.Network {
	t.Helper()
	nw, err := topology.Build(d, 0, topology.PaperRanges(r))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func ids(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) + 1000
	}
	return out
}

// detect runs one TRP execution over nw as the facade does: the reader plans
// with the inventory, a CCM session with p = 1 collects the bitmap from the
// tags actually deployed (present[i] is tag i's ID), and the plan checks it.
func detect(t *testing.T, nw *topology.Network, inventory, present []uint64, f int, seed uint64) Detection {
	t.Helper()
	plan, err := NewPlan(inventory, f, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunSession(nw, core.Config{FrameSize: f, Seed: seed, Sampling: 1, IDs: present})
	if err != nil {
		t.Fatal(err)
	}
	det, err := plan.Detect(res.Bitmap)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// frameFor sizes a frame with FrameSizeFor, failing the test on error.
func frameFor(t *testing.T, n, m int, delta float64) int {
	t.Helper()
	f, err := FrameSizeFor(n, m, delta)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameSizeFor(t *testing.T) {
	f, err := FrameSizeFor(10000, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Our independence-approximation derivation gives ~3497; the paper's
	// value from [8] is 3228. Assert the ballpark and that the resulting
	// detection probability actually meets delta.
	if f < 2800 || f > 4000 {
		t.Fatalf("FrameSizeFor(10000, 50, 0.95) = %d, want ~3200-3500", f)
	}
	if p := DetectionProbability(10000, 50, f); p < 0.95 {
		t.Fatalf("derived frame size yields detection probability %v < 0.95", p)
	}
	// Monotonicity: stricter delta or smaller tolerance needs more slots.
	f2, err := FrameSizeFor(10000, 50, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= f {
		t.Fatalf("delta 0.99 needs %d slots <= delta 0.95's %d", f2, f)
	}
	f3, err := FrameSizeFor(10000, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if f3 <= f {
		t.Fatalf("tolerance 10 needs %d slots <= tolerance 50's %d", f3, f)
	}
}

func TestFrameSizeForErrors(t *testing.T) {
	cases := []struct {
		n, m  int
		delta float64
	}{
		{0, 1, 0.9}, {10, 0, 0.9}, {10, 10, 0.9}, {10, 5, 0}, {10, 5, 1},
	}
	for i, c := range cases {
		if _, err := FrameSizeFor(c.n, c.m, c.delta); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestDetectionProbabilityShape(t *testing.T) {
	// More missing tags → easier to detect; bigger frame → easier too.
	if DetectionProbability(10000, 100, 3228) <= DetectionProbability(10000, 10, 3228) {
		t.Error("detection probability not increasing in missing count")
	}
	if DetectionProbability(10000, 50, 6000) <= DetectionProbability(10000, 50, 2000) {
		t.Error("detection probability not increasing in frame size")
	}
	if got := DetectionProbability(10, 0, 100); got != 0 {
		t.Errorf("zero missing should give probability 0, got %v", got)
	}
}

func TestPlanPrediction(t *testing.T) {
	inv := ids(500)
	plan, err := NewPlan(inv, 1024, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every inventory ID's slot must be predicted busy.
	for _, id := range inv {
		if !plan.Expected.Get(prng.SlotOf(id, 7, 1024)) {
			t.Fatalf("slot of id %d not predicted busy", id)
		}
	}
	if plan.Expected.Count() > len(inv) {
		t.Fatal("more predicted-busy slots than tags")
	}
}

func TestNewPlanError(t *testing.T) {
	if _, err := NewPlan(ids(5), 0, 1); err == nil {
		t.Fatal("zero frame size accepted")
	}
}

func TestDetectAgainstSyntheticBitmaps(t *testing.T) {
	inv := ids(100)
	const f = 512
	plan, err := NewPlan(inv, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect bitmap: no detection.
	det, err := plan.Detect(plan.Expected.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if det.Missing || len(det.Suspects) != 0 || len(det.UnexpectedBusy) != 0 {
		t.Fatalf("perfect bitmap triggered detection: %+v", det)
	}
	// Remove one tag's slot (choose an ID alone in its slot).
	var lonely uint64
	for _, id := range inv {
		slot := prng.SlotOf(id, 3, f)
		if len(plan.slotIDs[slot]) == 1 {
			lonely = id
			break
		}
	}
	if lonely == 0 {
		t.Skip("no singleton slot in this configuration")
	}
	actual := plan.Expected.Clone()
	actual.Clear(prng.SlotOf(lonely, 3, f))
	det, err = plan.Detect(actual)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Missing {
		t.Fatal("cleared slot not detected")
	}
	if len(det.Suspects) != 1 || det.Suspects[0] != lonely {
		t.Fatalf("suspects = %v, want [%d]", det.Suspects, lonely)
	}
	// Extra busy slot → unexpected-busy evidence.
	empty := -1
	for i := 0; i < f; i++ {
		if !plan.Expected.Get(i) {
			empty = i
			break
		}
	}
	actual = plan.Expected.Clone()
	actual.Set(empty)
	det, err = plan.Detect(actual)
	if err != nil {
		t.Fatal(err)
	}
	if det.Missing {
		t.Fatal("extra busy slot flagged as missing")
	}
	if len(det.UnexpectedBusy) != 1 || det.UnexpectedBusy[0] != empty {
		t.Fatalf("unexpected busy = %v, want [%d]", det.UnexpectedBusy, empty)
	}
}

func TestDetectLengthMismatch(t *testing.T) {
	plan, err := NewPlan(ids(10), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Detect(bitmap.New(65)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRunNoFalsePositives(t *testing.T) {
	// Nothing missing, reliable channel: detection must never fire, for any
	// seed (Theorem 1 makes the collected bitmap exact).
	d := geom.NewUniformDisk(1500, 30, 91)
	nw := diskNetwork(t, d, 6)
	inv := make([]uint64, 0, nw.Reachable)
	present := ids(d.N())
	for i := 0; i < d.N(); i++ {
		if nw.Tier[i] > 0 {
			inv = append(inv, present[i])
		}
	}
	f := frameFor(t, len(inv), 8, 0.95)
	for seed := uint64(0); seed < 5; seed++ {
		out := detect(t, nw, inv, present, f, seed)
		if out.Missing {
			t.Fatalf("seed %d: false positive with %d empty slots", seed, len(out.EmptySlots))
		}
	}
}

func TestRunDetectsRemovedTags(t *testing.T) {
	// Remove tags beyond the tolerance and check detection fires at the
	// advertised rate across seeds.
	full := geom.NewUniformDisk(1500, 30, 97)
	fullNw := diskNetwork(t, full, 6)
	present := ids(full.N())
	inv := make([]uint64, 0, fullNw.Reachable)
	reachable := make([]int, 0, fullNw.Reachable)
	for i := 0; i < full.N(); i++ {
		if fullNw.Tier[i] > 0 {
			inv = append(inv, present[i])
			reachable = append(reachable, i)
		}
	}
	// Remove 3% of reachable tags (well past a 0.5% tolerance).
	remove := reachable[:len(reachable)*3/100]
	depleted, orig := full.Remove(remove)
	depletedNw := diskNetwork(t, depleted, 6)
	depletedIDs := make([]uint64, depleted.N())
	for newIdx, oldIdx := range orig {
		depletedIDs[newIdx] = present[oldIdx]
	}

	detections := 0
	const trials = 10
	f := frameFor(t, len(inv), len(inv)/200, 0.95)
	for seed := uint64(0); seed < trials; seed++ {
		out := detect(t, depletedNw, inv, depletedIDs, f, seed)
		if out.Missing {
			detections++
			// Soundness: every suspect must really be absent from the
			// system. Tags that lost their relay path when others were
			// removed count as absent too (§II: unreachable tags are not
			// in the system).
			presentSet := make(map[uint64]bool, len(depletedIDs))
			for i, id := range depletedIDs {
				if depletedNw.Tier[i] > 0 {
					presentSet[id] = true
				}
			}
			for _, s := range out.Suspects {
				if presentSet[s] {
					t.Fatalf("seed %d: suspect %d is actually present", seed, s)
				}
			}
		}
	}
	if detections < trials-1 {
		t.Fatalf("detected in %d/%d trials; with 6x the tolerance missing it should be near-certain", detections, trials)
	}
}

// TestRunErrors: the pieces a detection runs refuse what it must not run —
// a session given the wrong number of present IDs, and a frame sized for a
// detection probability outside (0, 1).
func TestRunErrors(t *testing.T) {
	d := geom.NewUniformDisk(10, 30, 103)
	nw := diskNetwork(t, d, 8)
	if _, err := core.RunSession(nw, core.Config{FrameSize: 64, Sampling: 1, IDs: ids(9)}); err == nil {
		t.Fatal("present-ID length mismatch accepted")
	}
	if _, err := FrameSizeFor(10, 1, 1.5); err == nil {
		t.Fatal("invalid delta accepted")
	}
}

// TestDetectionRateMatchesAnalysis cross-checks the simulated detection rate
// against DetectionProbability on a deliberately undersized frame, where the
// rate is far from 1 and the comparison is informative.
func TestDetectionRateMatchesAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	const n, missing, f = 800, 4, 700
	src := prng.New(107)
	inv := ids(n)
	detections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		// Synthetic one-hop bitmap: cheaper than a full CCM run and, by
		// Theorem 1 (tested in core), equivalent.
		seed := src.Uint64()
		actual := bitmap.New(f)
		for _, id := range inv[missing:] { // first `missing` IDs absent
			actual.Set(prng.SlotOf(id, seed, f))
		}
		plan, err := NewPlan(inv, f, seed)
		if err != nil {
			t.Fatal(err)
		}
		det, err := plan.Detect(actual)
		if err != nil {
			t.Fatal(err)
		}
		if det.Missing {
			detections++
		}
	}
	want := DetectionProbability(n, missing, f)
	got := float64(detections) / trials
	if math.Abs(got-want) > 0.12 {
		t.Fatalf("detection rate %v, analysis predicts %v", got, want)
	}
}

// unknownDetectionProbability is the analytic rate of unknown-tag detection,
// the bound TestDetectUnknownEndToEnd holds the simulation to: an unknown tag
// escapes only by landing in a slot some inventory tag also occupies, so u
// unknown tags are detected with probability 1 − (1 − q)^u, q = (1−1/f)^n
// being the chance a given slot is free of the n inventory tags.
func unknownDetectionProbability(n, unknown, f int) float64 {
	if unknown <= 0 || f <= 0 {
		return 0
	}
	q := math.Pow(1-1/float64(f), float64(n))
	return 1 - math.Pow(1-q, float64(unknown))
}

func TestUnknownDetectionProbability(t *testing.T) {
	if got := unknownDetectionProbability(1000, 0, 512); got != 0 {
		t.Errorf("zero unknowns should give 0, got %v", got)
	}
	// More unknowns and bigger frames both raise the detection rate.
	if unknownDetectionProbability(1000, 10, 2048) <= unknownDetectionProbability(1000, 1, 2048) {
		t.Error("rate not increasing in unknown count")
	}
	if unknownDetectionProbability(1000, 5, 8192) <= unknownDetectionProbability(1000, 5, 1024) {
		t.Error("rate not increasing in frame size")
	}
}

// TestDetectUnknownSynthetic: a busy slot no inventory tag maps to is
// reported in UnexpectedBusy, and only such slots are.
func TestDetectUnknownSynthetic(t *testing.T) {
	inv := ids(200)
	const f = 1024
	plan, err := NewPlan(inv, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Expected bitmap alone: nothing unknown.
	d, err := plan.Detect(plan.Expected.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.UnexpectedBusy) != 0 {
		t.Fatal("clean bitmap reported unknown tags")
	}
	// Set one unpredicted slot: proof of a foreign tag.
	actual := plan.Expected.Clone()
	extra := -1
	for i := 0; i < f; i++ {
		if !plan.Expected.Get(i) {
			extra = i
			break
		}
	}
	actual.Set(extra)
	d, err = plan.Detect(actual)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.UnexpectedBusy) != 1 || d.UnexpectedBusy[0] != extra {
		t.Fatalf("unexpected busy = %v, want [%d]", d.UnexpectedBusy, extra)
	}
}

// TestDetectUnknownEndToEnd plants foreign tags in the field and checks the
// reader proves their presence through CCM.
func TestDetectUnknownEndToEnd(t *testing.T) {
	d := geom.NewUniformDisk(1200, 30, 151)
	nw := diskNetwork(t, d, 6)
	present := ids(1200)
	// Inventory = all reachable tags except 40 "foreign" ones the reader
	// has never seen.
	var inv []uint64
	foreign := 0
	for i := 0; i < d.N(); i++ {
		if nw.Tier[i] == 0 {
			continue
		}
		if foreign < 40 {
			foreign++
			continue // present but not in the inventory
		}
		inv = append(inv, present[i])
	}
	detections := 0
	const trials = 8
	f := frameFor(t, len(inv), len(inv)/200+1, 0.95)
	for seed := uint64(0); seed < trials; seed++ {
		if det := detect(t, nw, inv, present, f, seed); len(det.UnexpectedBusy) > 0 {
			detections++
		}
	}
	// 40 unknowns in a ~1300-slot frame: analytic detection rate is near 1.
	if want := unknownDetectionProbability(len(inv), 40, 1300); want > 0.99 && detections < trials-1 {
		t.Fatalf("detected foreign tags in %d/%d trials, analytic rate %v", detections, trials, want)
	}
}
