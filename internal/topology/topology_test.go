package topology

import (
	"math"
	"testing"

	"netags/internal/geom"
)

func line(points ...geom.Point) *geom.Deployment {
	return &geom.Deployment{
		Tags:    points,
		Readers: []geom.Point{{}},
		Radius:  30,
	}
}

func TestValidate(t *testing.T) {
	if err := PaperRanges(6).Validate(); err != nil {
		t.Fatalf("paper ranges invalid: %v", err)
	}
	bad := []Ranges{
		{ReaderToTag: 0, TagToReader: 20, TagToTag: 5},
		{ReaderToTag: 30, TagToReader: -1, TagToTag: 5},
		{ReaderToTag: 30, TagToReader: 20, TagToTag: 0},
		{ReaderToTag: 10, TagToReader: 20, TagToTag: 5},
	}
	for i, rg := range bad {
		if err := rg.Validate(); err == nil {
			t.Errorf("case %d: invalid ranges %+v passed validation", i, rg)
		}
	}
}

func TestEstimatedTiersAndCheckingFrame(t *testing.T) {
	// Paper values: R=30, r'=20 → 1+⌈10/r⌉.
	cases := map[float64]int{2: 6, 4: 4, 5: 3, 6: 3, 8: 3, 10: 2}
	for r, want := range cases {
		rg := PaperRanges(r)
		if got := rg.EstimatedTiers(); got != want {
			t.Errorf("EstimatedTiers(r=%v) = %d, want %d", r, got, want)
		}
		if got := rg.CheckingFrameLen(); got != 2*want {
			t.Errorf("CheckingFrameLen(r=%v) = %d, want %d", r, got, 2*want)
		}
	}
}

func TestBuildLineNetwork(t *testing.T) {
	// Tags at x = 19, 24, 29: tier 1 (within r'=20), then 5 m hops (r=6).
	d := line(geom.Point{X: 19}, geom.Point{X: 24}, geom.Point{X: 29})
	nw, err := Build(d, 0, PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	wantTier := []int16{1, 2, 3}
	for i, w := range wantTier {
		if nw.Tier[i] != w {
			t.Errorf("tier[%d] = %d, want %d", i, nw.Tier[i], w)
		}
	}
	if nw.K != 3 {
		t.Errorf("K = %d, want 3", nw.K)
	}
	if nw.Reachable != 3 {
		t.Errorf("Reachable = %d, want 3", nw.Reachable)
	}
	// Middle tag has two neighbors, ends have one.
	if nw.Degree(0) != 1 || nw.Degree(1) != 2 || nw.Degree(2) != 1 {
		t.Errorf("degrees = %d,%d,%d, want 1,2,1", nw.Degree(0), nw.Degree(1), nw.Degree(2))
	}
}

func TestBuildDisconnectedTag(t *testing.T) {
	// A tag at x=29 with no relay within reach is unreachable (tier 0) —
	// the paper excludes such tags from the system.
	d := line(geom.Point{X: 10}, geom.Point{X: 29})
	nw, err := Build(d, 0, PaperRanges(2))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tier[0] != 1 {
		t.Errorf("tier[0] = %d, want 1", nw.Tier[0])
	}
	if nw.Tier[1] != 0 {
		t.Errorf("tier[1] = %d, want 0 (unreachable)", nw.Tier[1])
	}
	if nw.Reachable != 1 {
		t.Errorf("Reachable = %d, want 1", nw.Reachable)
	}
}

func TestAdjacencyMatchesBruteForce(t *testing.T) {
	d := geom.NewUniformDisk(800, 30, 13)
	rg := PaperRanges(5)
	nw, err := Build(d, 0, rg)
	if err != nil {
		t.Fatal(err)
	}
	r2 := rg.TagToTag * rg.TagToTag
	for i := 0; i < nw.N(); i++ {
		want := map[int32]bool{}
		for j := range d.Tags {
			if j != i && d.Tags[i].Dist2(d.Tags[j]) <= r2 {
				want[int32(j)] = true
			}
		}
		got := nw.Neighbors(i)
		if len(got) != len(want) {
			t.Fatalf("tag %d: %d neighbors, brute force says %d", i, len(got), len(want))
		}
		for _, j := range got {
			if !want[j] {
				t.Fatalf("tag %d: spurious neighbor %d", i, j)
			}
		}
	}
}

func TestTiersMatchBFSInvariant(t *testing.T) {
	// Every tag at tier k >= 2 must have at least one neighbor at tier k-1,
	// and no neighbor at tier < k-1.
	d := geom.NewUniformDisk(3000, 30, 17)
	nw, err := Build(d, 0, PaperRanges(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nw.N(); i++ {
		k := nw.Tier[i]
		if k <= 1 {
			continue
		}
		best := int16(math.MaxInt16)
		for _, j := range nw.Neighbors(i) {
			if tj := nw.Tier[j]; tj > 0 && tj < best {
				best = tj
			}
		}
		if best != k-1 {
			t.Fatalf("tag %d at tier %d: closest reachable neighbor tier %d, want %d", i, k, best, k-1)
		}
	}
}

func TestTier1Definition(t *testing.T) {
	d := geom.NewUniformDisk(3000, 30, 19)
	rg := PaperRanges(6)
	nw, err := Build(d, 0, rg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Tags {
		within := p.Dist(nw.Reader) <= rg.TagToReader
		if within && nw.Tier[i] != 1 {
			t.Fatalf("tag %d within r' but tier %d", i, nw.Tier[i])
		}
		if !within && nw.Tier[i] == 1 {
			t.Fatalf("tag %d beyond r' but tier 1", i)
		}
	}
}

// TestTierCounts: the per-tier histogram of Tier covers every tag, with
// the unreachable tags (tier 0) matching N − Reachable and no tier above K.
func TestTierCounts(t *testing.T) {
	d := geom.NewUniformDisk(5000, 30, 23)
	nw, err := Build(d, 0, PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nw.K+1)
	for i, k := range nw.Tier {
		if int(k) > nw.K {
			t.Fatalf("tag %d at tier %d above K = %d", i, k, nw.K)
		}
		counts[k]++
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != nw.N() {
		t.Fatalf("tier counts sum to %d, want %d", sum, nw.N())
	}
	if counts[0] != nw.N()-nw.Reachable {
		t.Fatalf("unreachable count = %d, want %d", counts[0], nw.N()-nw.Reachable)
	}
	// At density ~1.77 (5000 tags) with r=6 the graph is connected with
	// overwhelming probability; nearly everything should be reachable.
	if nw.Reachable < nw.N()*99/100 {
		t.Fatalf("only %d/%d reachable; expected near-full connectivity", nw.Reachable, nw.N())
	}
}

// TestPaperTierCount reproduces the Fig. 3 shape at paper scale for one r:
// with n = 10,000 and r = 6 the network has about 1+⌈10/6⌉ = 3 tiers.
func TestPaperTierCount(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale deployment")
	}
	d := geom.NewUniformDisk(10000, 30, 29)
	nw, err := Build(d, 0, PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	if nw.K < 3 || nw.K > 4 {
		t.Fatalf("K = %d for r=6, want 3 (up to 4 with routing detours)", nw.K)
	}
}

func TestBuildErrors(t *testing.T) {
	d := geom.NewUniformDisk(10, 30, 1)
	if _, err := Build(d, 5, PaperRanges(6)); err == nil {
		t.Error("bad reader index accepted")
	}
	if _, err := Build(d, 0, Ranges{}); err == nil {
		t.Error("zero ranges accepted")
	}
	// NaN passes every ordered comparison false: a NaN range once built a
	// network with no links.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rg := range []Ranges{
			{ReaderToTag: x, TagToReader: 20, TagToTag: 6},
			{ReaderToTag: 30, TagToReader: x, TagToTag: 6},
			{ReaderToTag: 30, TagToReader: 20, TagToTag: x},
		} {
			if _, err := Build(d, 0, rg); err == nil {
				t.Errorf("non-finite ranges %+v accepted", rg)
			}
		}
	}
}

func TestEmptyDeployment(t *testing.T) {
	d := &geom.Deployment{Readers: []geom.Point{{}}, Radius: 30}
	nw, err := Build(d, 0, PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 0 || nw.K != 0 || nw.Reachable != 0 {
		t.Fatal("empty deployment produced non-empty network")
	}
}

func TestObstructedLinks(t *testing.T) {
	// Two tags 4 m apart with a wall between them: no link. A third tag
	// below the wall routes around it.
	d := line(geom.Point{X: 16}, geom.Point{X: 20}, geom.Point{X: 18, Y: -6})
	wall := []geom.Segment{{A: geom.Point{X: 18, Y: -3}, B: geom.Point{X: 18, Y: 3}}}
	nw, err := BuildObstructed(d, 0, PaperRanges(8), wall)
	if err != nil {
		t.Fatal(err)
	}
	// Direct 0↔1 link is blocked…
	for _, j := range nw.Neighbors(0) {
		if j == 1 {
			t.Fatal("link through the wall survived")
		}
	}
	// …but both still have the detour tag as a neighbor.
	if nw.Degree(0) != 1 || nw.Degree(1) != 1 || nw.Degree(2) != 2 {
		t.Fatalf("degrees = %d,%d,%d, want 1,1,2", nw.Degree(0), nw.Degree(1), nw.Degree(2))
	}
}

func TestObstructedTagToReader(t *testing.T) {
	// A tag 10 m from the reader but behind a wall cannot be tier 1, yet
	// it can still hear the high-power broadcast and relay through a
	// neighbor with a clear return path.
	d := line(geom.Point{X: 10}, geom.Point{X: 10, Y: 8})
	wall := []geom.Segment{{A: geom.Point{X: 5, Y: -3}, B: geom.Point{X: 5, Y: 3}}}
	nw, err := BuildObstructed(d, 0, PaperRanges(8), wall)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Tier[0] != 2 {
		t.Fatalf("blocked tag tier = %d, want 2 (relayed)", nw.Tier[0])
	}
	if nw.Tier[1] != 1 {
		t.Fatalf("clear tag tier = %d, want 1", nw.Tier[1])
	}
}

// TestObstructedCCMStillCollects is the paper's motivating claim end to
// end: a wall sector cuts many tags off from direct reader contact, yet a
// CCM session still collects every tag's bit by relaying around it.
func TestObstructedCCMStillCollects(t *testing.T) {
	d := geom.NewUniformDisk(2000, 30, 31)
	wall := []geom.Segment{{A: geom.Point{X: 4, Y: -12}, B: geom.Point{X: 4, Y: 12}}}
	clear, err := Build(d, 0, PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := BuildObstructed(d, 0, PaperRanges(6), wall)
	if err != nil {
		t.Fatal(err)
	}
	// The wall must actually cost direct coverage…
	tier1 := func(nw *Network) int {
		c := 0
		for i := 0; i < nw.N(); i++ {
			if nw.Tier[i] == 1 {
				c++
			}
		}
		return c
	}
	if tier1(blocked) >= tier1(clear) {
		t.Fatal("wall did not reduce direct coverage")
	}
	// …while multi-hop relaying keeps (almost) everyone in the system.
	if blocked.Reachable < clear.Reachable*99/100 {
		t.Fatalf("only %d/%d tags reachable around the wall", blocked.Reachable, clear.Reachable)
	}
}
