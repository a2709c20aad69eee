package netags

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/sicp"
	"netags/internal/topology"
)

func testSystem(t *testing.T, n int, r float64, seed uint64) *System {
	t.Helper()
	sys, err := NewSystem(SystemOptions{Tags: n, InterTagRange: r, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemDefaults(t *testing.T) {
	sys := testSystem(t, 1000, 6, 1)
	if sys.TagCount() != 1000 {
		t.Fatalf("TagCount = %d, want 1000", sys.TagCount())
	}
	if sys.Readers() != 1 {
		t.Fatalf("Readers = %d, want 1", sys.Readers())
	}
	if sys.Reachable() == 0 || sys.Reachable() > 1000 {
		t.Fatalf("Reachable = %d out of range", sys.Reachable())
	}
	if sys.Tiers() < 2 {
		t.Fatalf("Tiers = %d, want >= 2 for r=6", sys.Tiers())
	}
	if sys.Density() <= 0 {
		t.Fatal("Density must be positive")
	}
	if got := len(sys.IDs()); got != 1000 {
		t.Fatalf("IDs = %d entries, want 1000", got)
	}
	if got := len(sys.ReachableIDs()); got != sys.Reachable() {
		t.Fatalf("ReachableIDs = %d, want %d", got, sys.Reachable())
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemOptions{Tags: -1}); err == nil {
		t.Error("negative tag count accepted")
	}
	if _, err := NewSystem(SystemOptions{Tags: 5, IDs: []uint64{1, 2}}); err == nil {
		t.Error("ID length mismatch accepted")
	}
	if _, err := NewSystem(SystemOptions{Tags: 2, IDs: []uint64{7, 7}}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := NewSystem(SystemOptions{Tags: 5, ReaderRange: 10, TagToReaderRange: 20}); err == nil {
		t.Error("inverted ranges accepted")
	}
	// NaN passes every ordered comparison false: each of these once ran
	// silently (a network with no links) or, for the cluster spread, never
	// returned.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, opts := range []SystemOptions{
			{Tags: 50, Radius: x},
			{Tags: 50, ReaderRange: x},
			{Tags: 50, TagToReaderRange: x},
			{Tags: 50, InterTagRange: x},
			{Tags: 50, Clusters: 2, ClusterSpread: x},
		} {
			if _, err := NewSystem(opts); err == nil {
				t.Errorf("non-finite option accepted: %+v", opts)
			}
		}
	}
	// A non-positive cluster spread means the default (Radius/6), and the
	// spread is ignored without clusters.
	for _, opts := range []SystemOptions{
		{Tags: 50, ClusterSpread: -1},
		{Tags: 50, Clusters: 2, ClusterSpread: -1},
	} {
		if _, err := NewSystem(opts); err != nil {
			t.Errorf("%+v rejected: %v", opts, err)
		}
	}
}

func TestEstimateCardinality(t *testing.T) {
	sys := testSystem(t, 2000, 6, 2)
	res, err := sys.EstimateCardinality(EstimateOptions{Beta: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(sys.Reachable())
	if math.Abs(res.Estimate-n) > 0.15*n {
		t.Fatalf("estimate %.0f, true %d", res.Estimate, sys.Reachable())
	}
	if !res.Converged {
		t.Error("estimation did not converge")
	}
	if res.Cost.Slots <= 0 || res.Cost.AvgBitsReceived <= 0 {
		t.Errorf("cost not populated: %+v", res.Cost)
	}
	if res.Cost.MaxBitsSent < int64(res.Cost.AvgBitsSent) {
		t.Error("max sent below avg sent")
	}
}

func TestDetectMissingEndToEnd(t *testing.T) {
	sys := testSystem(t, 1500, 6, 4)
	inventory := sys.ReachableIDs()

	// Nothing missing: no detection across seeds.
	for seed := uint64(0); seed < 3; seed++ {
		res, err := sys.DetectMissing(inventory, DetectOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Missing {
			t.Fatalf("seed %d: false positive", seed)
		}
	}

	// Remove 40 tags: detection should fire (tolerance defaults to ~7).
	depleted, err := sys.RemoveTags(inventory[:40])
	if err != nil {
		t.Fatal(err)
	}
	res, err := depleted.DetectMissing(inventory, DetectOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Missing {
		t.Fatal("40 missing tags not detected")
	}
	removed := make(map[uint64]bool)
	for _, id := range inventory[:40] {
		removed[id] = true
	}
	stillThere := make(map[uint64]bool)
	for _, id := range depleted.ReachableIDs() {
		stillThere[id] = true
	}
	for _, sID := range res.Suspects {
		if stillThere[sID] {
			t.Fatalf("suspect %d is reachable and present", sID)
		}
	}
}

func TestDetectMissingEmptyInventory(t *testing.T) {
	sys := testSystem(t, 100, 6, 5)
	if _, err := sys.DetectMissing(nil, DetectOptions{}); err == nil {
		t.Fatal("empty inventory accepted")
	}
}

func TestSearchTags(t *testing.T) {
	sys := testSystem(t, 1000, 6, 6)
	present := sys.ReachableIDs()[:20]
	absent := []uint64{900001, 900002, 900003}
	res, err := sys.SearchTags(append(append([]uint64{}, present...), absent...), SearchOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[uint64]bool)
	for _, id := range res.Found {
		found[id] = true
	}
	for _, id := range present {
		if !found[id] {
			t.Fatalf("present tag %d not found", id)
		}
	}
	if len(res.Found)+len(res.Absent) != 23 {
		t.Fatalf("found+absent = %d, want 23", len(res.Found)+len(res.Absent))
	}
	if res.ExpectedFalsePositiveRate > 0.06 {
		t.Errorf("derived frame gives FP %v > target", res.ExpectedFalsePositiveRate)
	}
	if _, err := sys.SearchTags(present, SearchOptions{Hashes: -1}); err == nil {
		t.Error("negative hash count accepted")
	}
}

func TestCollectIDs(t *testing.T) {
	sys := testSystem(t, 800, 6, 8)
	res, err := sys.CollectIDs(CollectOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != sys.Reachable() {
		t.Fatalf("collected %d IDs, want %d", len(res.IDs), sys.Reachable())
	}
	if res.Cost.Slots <= 0 || res.TreeDepth < sys.Tiers() {
		t.Fatalf("bad cost/depth: %+v depth=%d", res.Cost, res.TreeDepth)
	}
	// CICP variant also collects everything.
	cres, err := sys.CollectIDs(CollectOptions{Seed: 1, Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.IDs) != sys.Reachable() {
		t.Fatalf("CICP collected %d IDs, want %d", len(cres.IDs), sys.Reachable())
	}
}

func TestCollectBitmapAndHeadlineClaim(t *testing.T) {
	// The paper's headline: CCM beats ID collection by an order of
	// magnitude on time and energy. Verify on the facade with a dense
	// system.
	sys := testSystem(t, 2000, 6, 9)
	bm, err := sys.CollectBitmap(SessionOptions{FrameSize: 512, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bm.Truncated || bm.Rounds == 0 || len(bm.BusySlots) == 0 {
		t.Fatalf("bad session: %+v", bm)
	}
	col, err := sys.CollectIDs(CollectOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bm.Cost.Slots*5 > col.Cost.Slots {
		t.Errorf("CCM %d slots not well below SICP %d", bm.Cost.Slots, col.Cost.Slots)
	}
	if bm.Cost.AvgBitsReceived*2 > col.Cost.AvgBitsReceived {
		t.Errorf("CCM avg received %.0f not well below SICP %.0f",
			bm.Cost.AvgBitsReceived, col.Cost.AvgBitsReceived)
	}
}

func TestCollectBitmapValidation(t *testing.T) {
	sys := testSystem(t, 50, 6, 10)
	if _, err := sys.CollectBitmap(SessionOptions{}); err == nil {
		t.Fatal("zero frame size accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := sys.CollectBitmap(SessionOptions{FrameSize: 64, Sampling: x}); err == nil {
			t.Errorf("sampling %v accepted", x)
		}
		if _, err := sys.CollectBitmap(SessionOptions{FrameSize: 64, LossProb: x}); err == nil {
			t.Errorf("loss probability %v accepted", x)
		}
	}
}

func TestMultiReaderSystem(t *testing.T) {
	// Two distant readers: union coverage exceeds either alone.
	sys, err := NewSystem(SystemOptions{
		Tags:          1500,
		Radius:        60,
		InterTagRange: 5,
		Readers:       []Position{{X: -30}, {X: 30}},
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Readers() != 2 {
		t.Fatalf("Readers = %d, want 2", sys.Readers())
	}
	single, err := NewSystem(SystemOptions{
		Tags:          1500,
		Radius:        60,
		InterTagRange: 5,
		Readers:       []Position{{X: -30}},
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Reachable() <= single.Reachable() {
		t.Fatalf("two readers reach %d <= one reader's %d", sys.Reachable(), single.Reachable())
	}
	// Operations work across readers.
	res, err := sys.EstimateCardinality(EstimateOptions{Beta: 0.15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(sys.Reachable())
	if math.Abs(res.Estimate-n) > 0.25*n {
		t.Fatalf("multi-reader estimate %.0f, true %d", res.Estimate, sys.Reachable())
	}
	col, err := sys.CollectIDs(CollectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.IDs) != sys.Reachable() {
		t.Fatalf("multi-reader collected %d, want %d", len(col.IDs), sys.Reachable())
	}
}

// collectIDsMerged is CollectIDs without the single-reader fast path: every
// reader's run is deduplicated into the ID list in reader order and its
// meter merged, for any number of readers.
func collectIDsMerged(t *testing.T, s *System, opts CollectOptions) *CollectResult {
	t.Helper()
	run := sicp.Collect
	if opts.Contention {
		run = sicp.CollectCICP
	}
	out := &CollectResult{}
	var clock energy.Clock
	meter := energy.NewMeter(s.TagCount())
	seen := make(map[uint64]bool)
	for _, nw := range s.networks {
		res, err := run(nw, sicp.Options{Seed: opts.Seed, ContentionWindow: opts.ContentionWindow, IDs: s.ids})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range res.Collected {
			if !seen[id] {
				seen[id] = true
				out.IDs = append(out.IDs, id)
			}
		}
		clock.Add(res.Clock)
		if err := meter.Merge(res.Meter); err != nil {
			t.Fatal(err)
		}
		out.TreeDepth = max(out.TreeDepth, res.TreeDepth)
	}
	out.Cost = s.cost(clock, meter)
	return out
}

// TestCollectIDsSingleReaderFastPath checks that a one-reader system, which
// returns its collector's IDs and meter as they are, and a two-reader
// system, which deduplicates and merges, both give what the merging path
// gives: the same IDs in the same order, depth and cost.
func TestCollectIDsSingleReaderFastPath(t *testing.T) {
	for _, readers := range [][]Position{{{}}, {{X: -15}, {X: 15}}} {
		sys, err := NewSystem(SystemOptions{Tags: 1200, Radius: 40, InterTagRange: 5, Readers: readers, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		for _, contention := range []bool{false, true} {
			t.Run(fmt.Sprintf("readers=%d/contention=%v", len(readers), contention), func(t *testing.T) {
				opts := CollectOptions{Seed: 4, Contention: contention}
				got, err := sys.CollectIDs(opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := collectIDsMerged(t, sys, opts); !reflect.DeepEqual(got, want) {
					t.Fatalf("CollectIDs: %d IDs depth %d cost %+v; merging path: %d IDs depth %d cost %+v",
						len(got.IDs), got.TreeDepth, got.Cost, len(want.IDs), want.TreeDepth, want.Cost)
				}
				if len(got.IDs) != sys.Reachable() || sys.Reachable() < 500 {
					t.Fatalf("collected %d IDs of %d reachable tags", len(got.IDs), sys.Reachable())
				}
			})
		}
	}
}

func TestRemoveTagsErrors(t *testing.T) {
	sys := testSystem(t, 100, 6, 12)
	if _, err := sys.RemoveTags([]uint64{999999}); err == nil {
		t.Fatal("unknown ID accepted")
	}
	depleted, err := sys.RemoveTags(sys.IDs()[:10])
	if err != nil {
		t.Fatal(err)
	}
	if depleted.TagCount() != 90 {
		t.Fatalf("TagCount after removal = %d, want 90", depleted.TagCount())
	}
	if sys.TagCount() != 100 {
		t.Fatal("RemoveTags mutated the original system")
	}
}

func TestLossyOperations(t *testing.T) {
	sys := testSystem(t, 800, 6, 13)
	inventory := sys.ReachableIDs()
	// With heavy loss and nothing missing, TRP can now produce false
	// positives — that is the point of the extension.
	res, err := sys.DetectMissing(inventory, DetectOptions{Seed: 2, LossProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // any outcome is legal; the call must simply work
}

func TestEstimateLoFMethod(t *testing.T) {
	sys := testSystem(t, 2000, 6, 21)
	res, err := sys.EstimateCardinality(EstimateOptions{Method: EstimateLoF, Seed: 4, MaxFrames: 48})
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(sys.Reachable())
	if res.Estimate < truth/2 || res.Estimate > truth*2 {
		t.Fatalf("LoF estimate %.0f outside 2x band of %d", res.Estimate, sys.Reachable())
	}
	if !math.IsInf(res.RelHalfWidth, 1) {
		t.Error("LoF should not claim a confidence interval")
	}
	// The LoF sketch must be far cheaper in air time than GMLE.
	g, err := sys.EstimateCardinality(EstimateOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Slots*2 > g.Cost.Slots {
		t.Errorf("LoF %d slots not well below GMLE %d", res.Cost.Slots, g.Cost.Slots)
	}
}

func TestIdentifyMissingFacade(t *testing.T) {
	sys := testSystem(t, 800, 6, 22)
	inventory := sys.ReachableIDs()
	depleted, err := sys.RemoveTags(inventory[:25])
	if err != nil {
		t.Fatal(err)
	}
	res, err := depleted.IdentifyMissing(inventory, IdentifyOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("incomplete: %d undetermined", len(res.Undetermined))
	}
	removed := map[uint64]bool{}
	for _, id := range inventory[:25] {
		removed[id] = true
	}
	foundRemoved := 0
	for _, id := range res.Absent {
		if removed[id] {
			foundRemoved++
		}
	}
	if foundRemoved != 25 {
		t.Fatalf("identified %d/25 removed tags as absent", foundRemoved)
	}
	stillThere := map[uint64]bool{}
	for _, id := range depleted.ReachableIDs() {
		stillThere[id] = true
	}
	for _, id := range res.Present {
		if !stillThere[id] {
			t.Fatalf("id %d declared present but is not reachable", id)
		}
	}
}

func TestIdentifyMissingErrors(t *testing.T) {
	sys := testSystem(t, 100, 6, 23)
	if _, err := sys.IdentifyMissing(nil, IdentifyOptions{}); err == nil {
		t.Error("empty inventory accepted")
	}
	multi, err := NewSystem(SystemOptions{Tags: 100, Readers: []Position{{X: -5}, {X: 5}}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.IdentifyMissing(multi.ReachableIDs(), IdentifyOptions{}); err == nil {
		t.Error("multi-reader identification should be rejected")
	}
}

func TestWallsBlockDirectCoverage(t *testing.T) {
	opts := SystemOptions{Tags: 2000, InterTagRange: 6, Seed: 33}
	open, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Walls = []Wall{{From: Position{X: 5, Y: -15}, To: Position{X: 5, Y: 15}}}
	walled, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if walled.DirectCoverage() >= open.DirectCoverage() {
		t.Fatalf("wall did not reduce direct coverage: %d vs %d",
			walled.DirectCoverage(), open.DirectCoverage())
	}
	if walled.Reachable() < open.Reachable()*95/100 {
		t.Fatalf("relaying recovered only %d of %d tags", walled.Reachable(), open.Reachable())
	}
	if walled.Tiers() <= open.Tiers() {
		t.Fatalf("detours should deepen the network: %d vs %d tiers",
			walled.Tiers(), open.Tiers())
	}
}

func TestCheckingFrameLenOverride(t *testing.T) {
	// A deep walled network truncates with the default L_c and recovers
	// with an explicit one.
	opts := SystemOptions{
		Tags:          2000,
		InterTagRange: 4,
		Seed:          34,
		Walls: []Wall{
			{From: Position{X: 4, Y: -20}, To: Position{X: 4, Y: 20}},
			{From: Position{X: -8, Y: -20}, To: Position{X: -8, Y: 18}},
		},
	}
	deep, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	def, err := deep.CollectBitmap(SessionOptions{FrameSize: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts.CheckingFrameLen = 6 * deep.Tiers()
	tuned, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := tuned.CollectBitmap(SessionOptions{FrameSize: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Truncated {
		t.Fatal("tuned checking frame still truncates")
	}
	if def.Truncated && len(fixed.BusySlots) < len(def.BusySlots) {
		t.Fatal("tuned session collected fewer bits than the truncated one")
	}
	if _, err := NewSystem(SystemOptions{Tags: 10, CheckingFrameLen: -1}); err == nil {
		t.Fatal("negative checking-frame length accepted")
	}
}

func TestClusteredSystem(t *testing.T) {
	sys, err := NewSystem(SystemOptions{
		Tags:          2000,
		InterTagRange: 6,
		Clusters:      6,
		ClusterSpread: 4,
		Seed:          44,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Reachable() == 0 {
		t.Fatal("no reachable tags in clustered layout")
	}
	// Every protocol still behaves: no false detection with nothing
	// missing (Theorem 1 holds on any topology)…
	inventory := sys.ReachableIDs()
	det, err := sys.DetectMissing(inventory, DetectOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if det.Missing && !det.Truncated {
		t.Fatal("false positive on clustered layout")
	}
	// …and SICP still collects everything reachable.
	col, err := sys.CollectIDs(CollectOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.IDs) != sys.Reachable() {
		t.Fatalf("collected %d of %d on clustered layout", len(col.IDs), sys.Reachable())
	}
}

func TestClusteredRejectsCustomReaders(t *testing.T) {
	_, err := NewSystem(SystemOptions{Tags: 10, Clusters: 2, Readers: []Position{{X: 1}}})
	if err == nil {
		t.Fatal("clustered layout with custom readers accepted")
	}
}

func TestDetectMissingRepeatedExecutions(t *testing.T) {
	sys := testSystem(t, 1000, 6, 66)
	inventory := sys.ReachableIDs()
	res, err := sys.DetectMissing(inventory, DetectOptions{Seed: 1, Executions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Missing {
		t.Fatal("false positive")
	}
	if res.Executions != 3 {
		t.Fatalf("executions = %d, want all 3 when nothing is missing", res.Executions)
	}
	// With removals, repetition stops at the first hit.
	depleted, err := sys.RemoveTags(inventory[:30])
	if err != nil {
		t.Fatal(err)
	}
	res, err = depleted.DetectMissing(inventory, DetectOptions{Seed: 1, Executions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Missing {
		t.Fatal("missing tags undetected across 5 executions")
	}
	if res.Executions < 1 || res.Executions > 5 {
		t.Fatalf("executions = %d", res.Executions)
	}
	if _, err := depleted.DetectMissing(inventory, DetectOptions{Executions: -1}); err == nil {
		t.Fatal("negative executions accepted")
	}
}

// TestDetectMissingUnknownTags: deployed tags whose IDs (set through
// SystemOptions.IDs) are not in the inventory answer in slots no inventory
// tag maps to, so DetectMissing reports UnknownTags — and only then.
func TestDetectMissingUnknownTags(t *testing.T) {
	ids := make([]uint64, 1200)
	for i := range ids {
		ids[i] = 7000 + uint64(i)*13
	}
	sys, err := NewSystem(SystemOptions{Tags: len(ids), InterTagRange: 6, Seed: 151, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	reachable := sys.ReachableIDs()
	res, err := sys.DetectMissing(reachable, DetectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnknownTags || res.Missing {
		t.Fatalf("full inventory: unknown %v missing %v, want neither", res.UnknownTags, res.Missing)
	}
	// The reader has never seen the first 40 reachable tags.
	res, err = sys.DetectMissing(reachable[40:], DetectOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UnknownTags {
		t.Fatal("40 tags outside the inventory not reported as unknown")
	}
	if res.Missing {
		t.Fatal("every inventory tag is present, but Missing was reported")
	}
}

// TestOnRoundMatchesRoundEvents: CollectBitmap's OnRound receives one
// RoundInfo per round, equal to that round's KindRound event, while a
// tracer set with WithTracer still sees every event — for a single-reader
// and a multi-reader system (one callback per reader's round).
func TestOnRoundMatchesRoundEvents(t *testing.T) {
	for _, readers := range [][]Position{{{}}, {{X: -30}, {X: 30}}} {
		sys, err := NewSystem(SystemOptions{
			Tags: 800, Radius: 60, InterTagRange: 5, Readers: readers, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		mem := obs.NewMemory()
		var got []RoundInfo
		res, err := sys.WithTracer(mem).CollectBitmap(SessionOptions{
			FrameSize: 128, Seed: 9,
			OnRound: func(ri RoundInfo) { got = append(got, ri) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []RoundInfo
		for _, ev := range mem.Events() {
			if ev.Kind == obs.KindRound {
				want = append(want, RoundInfo{
					Round: ev.Round, Transmitters: ev.Transmitters, BitsSent: int(ev.Bits),
					NewBusy: ev.NewBusy, KnownBusy: ev.KnownBusy,
					CheckSlots: ev.CheckSlots, MorePending: ev.Pending,
				})
			}
		}
		if len(readers) == 1 && len(want) != res.Rounds || len(want) < res.Rounds {
			t.Fatalf("%d readers: %d round events for %d rounds", len(readers), len(want), res.Rounds)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d readers: OnRound saw %+v, events say %+v", len(readers), got, want)
		}
	}
}

// TestReadersShareAdjacency: NewSystem builds a deployment's adjacency once
// and gives each reader its own tiers over it. Each reader's network must
// equal the one built for that reader alone, and every multi-reader
// operation must return what it returns over separately built networks.
func TestReadersShareAdjacency(t *testing.T) {
	sys, err := NewSystem(SystemOptions{
		Tags: 1500, Radius: 60, InterTagRange: 5,
		Readers: []Position{{X: -30}, {X: 30}, {Y: 25}},
		Walls:   []Wall{{From: Position{X: -10, Y: -40}, To: Position{X: -10, Y: 40}}},
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	separate := *sys
	separate.networks = nil
	for ri := range sys.deployment.Readers {
		nw, err := topology.BuildObstructed(sys.deployment, ri, sys.ranges, sys.obstacles)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sys.networks[ri], nw) {
			t.Fatalf("reader %d: network differs from one built for that reader alone", ri)
		}
		separate.networks = append(separate.networks, nw)
	}
	if sys.networks[0].K == sys.networks[1].K && reflect.DeepEqual(sys.networks[0].Tier, sys.networks[1].Tier) {
		t.Fatal("readers at opposite ends share their tiers: the test cannot tell them apart")
	}
	ids := sys.IDs()
	inventory := append(slices.Clone(ids[:1400]), 1e9, 1e9+1)
	for _, op := range []struct {
		name string
		run  func(*System) (any, error)
	}{
		{"estimate", func(s *System) (any, error) { return s.EstimateCardinality(EstimateOptions{Beta: 0.15, Seed: 1}) }},
		{"detect", func(s *System) (any, error) { return s.DetectMissing(inventory, DetectOptions{Seed: 2}) }},
		{"search", func(s *System) (any, error) { return s.SearchTags(inventory[1300:], SearchOptions{Seed: 3}) }},
		{"collect", func(s *System) (any, error) { return s.CollectIDs(CollectOptions{Seed: 4}) }},
		{"bitmap", func(s *System) (any, error) {
			return s.CollectBitmap(SessionOptions{FrameSize: 256, Seed: 5, LossProb: 0.2})
		}},
	} {
		got, err := op.run(sys)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		want, err := op.run(&separate)
		if err != nil {
			t.Fatalf("%s over separate networks: %v", op.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v, over separately built networks %+v", op.name, got, want)
		}
	}
}
