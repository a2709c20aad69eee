package search

import (
	"math"
	"testing"
	"testing/quick"

	"netags/internal/core"
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

func ids(n int, base uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// outcome is one search execution's result.
type outcome struct {
	found, absent []uint64
	f             int // the frame size used
	res           *core.Result
}

// runSearch runs one search execution over nw as the facade does: every
// deployed tag (present[i] is tag i's ID) Bloom-encodes itself into an f-slot
// frame, f derived from the reachable population at a 5% false-positive
// target when 0, and the wanted list is tested against the bitmap.
// checkingLen overrides the session's L_c when positive.
func runSearch(t *testing.T, nw *topology.Network, present, wanted []uint64, seed uint64, f, hashes, checkingLen int) outcome {
	t.Helper()
	if f == 0 {
		var err error
		if f, err = FrameSizeFor(nw.Reachable, hashes, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	res, err := core.RunSession(nw, core.Config{
		FrameSize:        f,
		Seed:             seed,
		Picker:           Picker(seed, hashes, f),
		IDs:              present,
		CheckingFrameLen: checkingLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	found, absent := Evaluate(res.Bitmap, wanted, seed, hashes)
	return outcome{found: found, absent: absent, f: f, res: res}
}

func TestFalsePositiveRateShape(t *testing.T) {
	// More tags → more busy slots → higher FP; bigger frame → lower FP.
	if FalsePositiveRate(1000, 4096, 3) <= FalsePositiveRate(100, 4096, 3) {
		t.Error("FP rate not increasing in population")
	}
	if FalsePositiveRate(1000, 8192, 3) >= FalsePositiveRate(1000, 2048, 3) {
		t.Error("FP rate not decreasing in frame size")
	}
	if got := FalsePositiveRate(100, 0, 3); got != 1 {
		t.Errorf("degenerate frame should give FP 1, got %v", got)
	}
}

func TestFrameSizeFor(t *testing.T) {
	f, err := FrameSizeFor(1000, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := FalsePositiveRate(1000, f, 3); got > 0.05 {
		t.Fatalf("derived frame %d gives FP %v > 0.05", f, got)
	}
	for _, bad := range []struct {
		n, k int
		fp   float64
	}{{0, 3, 0.05}, {10, 0, 0.05}, {10, 3, 0}, {10, 3, 1}} {
		if _, err := FrameSizeFor(bad.n, bad.k, bad.fp); err == nil {
			t.Errorf("FrameSizeFor(%+v) accepted", bad)
		}
	}
}

func TestSearchNoFalseNegatives(t *testing.T) {
	// Every wanted ID that is present and reachable must be found, for any
	// seed: present tags always deliver their slots (Theorem 1).
	nw := diskNetwork(t, 1200, 6, 301)
	present := ids(1200, 5000)
	// Want 30 present tags (pick reachable ones) and 30 absent IDs.
	var wanted []uint64
	var wantPresent []uint64
	for i := 0; len(wantPresent) < 30 && i < nw.N(); i++ {
		if nw.Tier[i] > 0 {
			wanted = append(wanted, present[i])
			wantPresent = append(wantPresent, present[i])
		}
	}
	absentIDs := ids(30, 999999)
	wanted = append(wanted, absentIDs...)

	for seed := uint64(0); seed < 3; seed++ {
		out := runSearch(t, nw, present, wanted, seed, 0, DefaultHashes, 0)
		found := make(map[uint64]bool, len(out.found))
		for _, id := range out.found {
			found[id] = true
		}
		for _, id := range wantPresent {
			if !found[id] {
				t.Fatalf("seed %d: present tag %d not found", seed, id)
			}
		}
	}
}

func TestSearchFalsePositiveRateNearAnalytic(t *testing.T) {
	nw := diskNetwork(t, 1500, 6, 307)
	present := ids(1500, 5000)
	absent := ids(800, 2000000)
	out := runSearch(t, nw, present, absent, 11, 0, DefaultHashes, 0)
	got := float64(len(out.found)) / float64(len(absent))
	want := FalsePositiveRate(nw.Reachable, out.f, DefaultHashes)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("observed FP rate %v, analytic %v", got, want)
	}
	if want > 0.06 {
		t.Fatalf("derived frame should keep FP <= 5%%, analytic says %v", want)
	}
}

func TestSearchAbsentProof(t *testing.T) {
	// Absent means at least one idle slot — the absolute counts must add up.
	nw := diskNetwork(t, 500, 6, 311)
	present := ids(500, 5000)
	wanted := ids(100, 7777777)
	out := runSearch(t, nw, present, wanted, 2, 0, DefaultHashes, 0)
	if len(out.found)+len(out.absent) != len(wanted) {
		t.Fatalf("found %d + absent %d != wanted %d", len(out.found), len(out.absent), len(wanted))
	}
}

func TestSearchExplicitFrameAndHashes(t *testing.T) {
	nw := diskNetwork(t, 300, 8, 313)
	present := ids(300, 100)
	out := runSearch(t, nw, present, present[:5], 3, 4096, 5, 0)
	if len(out.found) == 0 {
		t.Fatal("no present tags found with explicit parameters")
	}
	if out.res.Clock.Total() == 0 || out.res.Rounds == 0 {
		t.Fatal("session costs missing")
	}
}

// TestSearchValidation: the pieces a search runs refuse what it must not
// run — a session given the wrong number of present IDs, and a frame sized
// for a non-positive hash count.
func TestSearchValidation(t *testing.T) {
	nw := diskNetwork(t, 50, 6, 317)
	if _, err := core.RunSession(nw, core.Config{FrameSize: 64, Picker: Picker(1, DefaultHashes, 64), IDs: ids(49, 1)}); err == nil {
		t.Error("present-ID length mismatch accepted")
	}
	if _, err := FrameSizeFor(nw.Reachable, -1, 0.05); err == nil {
		t.Error("negative hash count accepted")
	}
}

// TestSearchNoFalseNegativesProperty drives the no-false-negative guarantee
// through testing/quick: under any geometry, seed and Bloom width, every
// present reachable tag in the wanted list is found.
func TestSearchNoFalseNegativesProperty(t *testing.T) {
	prop := func(seed uint64, rRaw, kRaw uint8) bool {
		r := 3 + float64(rRaw%8)
		hashes := 1 + int(kRaw%5)
		nw := diskNetwork(t, 300, r, seed)
		present := ids(300, 40000)
		var wanted []uint64
		for i := 0; i < nw.N() && len(wanted) < 25; i++ {
			if nw.Tier[i] > 0 {
				wanted = append(wanted, present[i])
			}
		}
		// Sparse random graphs can have detour paths deeper than the
		// default L_c; the guarantee presumes a complete session.
		out := runSearch(t, nw, present, wanted, seed, 0, hashes, 64)
		found := make(map[uint64]bool, len(out.found))
		for _, id := range out.found {
			found[id] = true
		}
		for _, id := range wanted {
			if !found[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
