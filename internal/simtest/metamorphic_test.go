package simtest

import (
	"math"
	"testing"

	"netags/internal/bitmap"
	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/topology"
)

// TestMetamorphicRelabeling: permuting the tag indices (carrying each
// physical tag's ID along) is a pure renaming — the collected bitmap, round
// count, truncation flag, air time, and each physical tag's energy must not
// change. Slot choice depends only on (ID, seed), never on the index.
func TestMetamorphicRelabeling(t *testing.T) {
	ForEach(t, 0x3e1a, func(t *testing.T, sc *Scenario) {
		n := sc.Network.N()
		if n < 2 {
			return
		}
		src := sc.Source(20)
		cfg := sc.NewConfig(src)
		cfg.Picker = nil // pickers are exercised elsewhere; IDs carry identity here
		if cfg.IDs == nil {
			cfg.IDs = RandomIDs(src, n)
		}
		res, err := core.RunSession(sc.Network, cfg)
		if err != nil {
			t.Fatalf("%v seed %#x: %v", sc.Shape, sc.Seed, err)
		}

		// Fisher–Yates permutation of the deployment, IDs riding along.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		pd := &geom.Deployment{
			Tags:    make([]geom.Point, n),
			Readers: append([]geom.Point(nil), sc.Deployment.Readers...),
			Radius:  sc.Deployment.Radius,
		}
		pcfg := cfg
		pcfg.IDs = make([]uint64, n)
		for ni, oi := range perm {
			pd.Tags[ni] = sc.Deployment.Tags[oi]
			pcfg.IDs[ni] = cfg.IDs[oi]
		}
		pnw, err := buildLike(sc, pd)
		if err != nil {
			t.Fatalf("%v seed %#x: permuted build: %v", sc.Shape, sc.Seed, err)
		}
		pres, err := core.RunSession(pnw, pcfg)
		if err != nil {
			t.Fatalf("%v seed %#x: permuted session: %v", sc.Shape, sc.Seed, err)
		}
		if !pres.Bitmap.Equal(res.Bitmap) || pres.Rounds != res.Rounds ||
			pres.Truncated != res.Truncated || pres.Clock != res.Clock {
			t.Errorf("%v seed %#x: relabeling changed the session (rounds %d→%d)",
				sc.Shape, sc.Seed, res.Rounds, pres.Rounds)
		}
		for ni, oi := range perm {
			if pres.Meter.Sent(ni) != res.Meter.Sent(oi) || pres.Meter.Received(ni) != res.Meter.Received(oi) {
				t.Errorf("%v seed %#x: relabeling changed physical tag %d's energy", sc.Shape, sc.Seed, oi)
				break
			}
		}
	})
}

// TestMetamorphicUnreachableAddition: appending a tag that is isolated from
// everything (far outside the broadcast range and every tag's relay range)
// must leave the session untouched.
func TestMetamorphicUnreachableAddition(t *testing.T) {
	ForEach(t, 0x3e1b, func(t *testing.T, sc *Scenario) {
		src := sc.Source(21)
		cfg := sc.NewConfig(src)
		res, err := core.RunSession(sc.Network, cfg)
		if err != nil {
			t.Fatalf("%v seed %#x: %v", sc.Shape, sc.Seed, err)
		}

		// Place the stray far beyond everything: the deployment's extent
		// plus broadcast and relay ranges, times ten.
		far := 10 * (sc.Deployment.Radius + sc.Ranges.ReaderToTag + sc.Ranges.TagToTag + 1)
		angle := 2 * math.Pi * src.Float64()
		ad := &geom.Deployment{
			Tags: append(append([]geom.Point(nil), sc.Deployment.Tags...),
				geom.Point{X: far * math.Cos(angle), Y: far * math.Sin(angle)}),
			Readers: append([]geom.Point(nil), sc.Deployment.Readers...),
			Radius:  far,
		}
		acfg := cfg
		if cfg.IDs != nil {
			acfg.IDs = append(append([]uint64(nil), cfg.IDs...), ^uint64(0))
		}
		anw, err := buildLike(sc, ad)
		if err != nil {
			t.Fatalf("%v seed %#x: augmented build: %v", sc.Shape, sc.Seed, err)
		}
		if anw.Tier[anw.N()-1] != 0 {
			t.Fatalf("%v seed %#x: stray tag unexpectedly reachable", sc.Shape, sc.Seed)
		}
		ares, err := core.RunSession(anw, acfg)
		if err != nil {
			t.Fatalf("%v seed %#x: augmented session: %v", sc.Shape, sc.Seed, err)
		}
		if !ares.Bitmap.Equal(res.Bitmap) || ares.Rounds != res.Rounds ||
			ares.Truncated != res.Truncated || ares.Clock != res.Clock {
			t.Errorf("%v seed %#x: adding an unreachable tag changed the session", sc.Shape, sc.Seed)
		}
		for i := 0; i < sc.Network.N(); i++ {
			if ares.Meter.Sent(i) != res.Meter.Sent(i) || ares.Meter.Received(i) != res.Meter.Received(i) {
				t.Errorf("%v seed %#x: adding an unreachable tag changed tag %d's energy", sc.Shape, sc.Seed, i)
				break
			}
		}
	})
}

// TestMetamorphicMultiReaderOr: eq. (1)'s composition law, on the combiner
// every multi-reader call runs. core.RunReaders must match one session per
// reader: Bitmap the OR of theirs, Rounds the max, Truncated the OR, Clock
// the sum and each tag's Meter the sum. On a reliable channel with every
// session complete, the combination also equals the union of the
// per-reader direct bitmaps.
func TestMetamorphicMultiReaderOr(t *testing.T) {
	ForEach(t, 0x3e1c, func(t *testing.T, sc *Scenario) {
		src := sc.Source(22)
		// Re-home the deployment with 2–3 readers: the original at the
		// center plus extras dropped inside the deployment extent.
		d := &geom.Deployment{
			Tags:    sc.Deployment.Tags,
			Readers: []geom.Point{{}},
			Radius:  sc.Deployment.Radius,
		}
		extra := 1 + src.Intn(2)
		for k := 0; k < extra; k++ {
			d.Readers = append(d.Readers, geom.SampleDisk(src, math.Max(d.Radius, 1)))
		}
		cfg := sc.NewConfig(src)
		cfg.CheckingFrameLen = 0 // resolved per reader below
		cfg.MaxRounds = 0
		nets := make([]*topology.Network, len(d.Readers))
		for ri := range d.Readers {
			nw, err := topology.Build(d, ri, sc.Ranges)
			if err != nil {
				t.Fatalf("%v seed %#x: reader %d: %v", sc.Shape, sc.Seed, ri, err)
			}
			nets[ri] = nw
		}
		mres, err := core.RunReaders(nets, cfg)
		if err != nil {
			t.Fatalf("%v seed %#x: multi: %v", sc.Shape, sc.Seed, err)
		}

		want := bitmap.New(cfg.FrameSize)
		orDirect := bitmap.New(cfg.FrameSize)
		var clock energy.Clock
		sent := make([]int64, d.N())
		received := make([]int64, d.N())
		rounds, truncated := 0, false
		for ri, nw := range nets {
			rcfg := cfg
			rcfg.Reader = ri
			res, err := core.RunSession(nw, rcfg)
			if err != nil {
				t.Fatalf("%v seed %#x: reader %d: %v", sc.Shape, sc.Seed, ri, err)
			}
			want.Or(res.Bitmap)
			clock.Add(res.Clock)
			for i := range sent {
				sent[i] += res.Meter.Sent(i)
				received[i] += res.Meter.Received(i)
			}
			rounds = max(rounds, res.Rounds)
			truncated = truncated || res.Truncated
			direct, err := core.DirectBitmap(nw, rcfg)
			if err != nil {
				t.Fatalf("%v seed %#x: reader %d direct: %v", sc.Shape, sc.Seed, ri, err)
			}
			orDirect.Or(direct)
		}
		if !mres.Bitmap.Equal(want) {
			t.Errorf("%v seed %#x: multi-reader bitmap != OR of per-reader sessions", sc.Shape, sc.Seed)
		}
		if mres.Rounds != rounds || mres.Truncated != truncated || mres.Clock != clock {
			t.Errorf("%v seed %#x: combined rounds %d truncated %v clock %+v, want %d %v %+v",
				sc.Shape, sc.Seed, mres.Rounds, mres.Truncated, mres.Clock, rounds, truncated, clock)
		}
		for i := range sent {
			if mres.Meter.Sent(i) != sent[i] || mres.Meter.Received(i) != received[i] {
				t.Errorf("%v seed %#x: tag %d combined energy %d/%d, want the per-reader sum %d/%d", sc.Shape, sc.Seed,
					i, mres.Meter.Sent(i), mres.Meter.Received(i), sent[i], received[i])
				break
			}
		}
		// Default L_c can undershoot a pathological detour; the union law
		// holds only when every session completed.
		if !truncated && !mres.Bitmap.Equal(orDirect) {
			t.Errorf("%v seed %#x: multi-reader bitmap != union of direct bitmaps", sc.Shape, sc.Seed)
		}
	})
}

// TestMetamorphicSilentLoss ties the session's two delivery loops together.
// A reliable session delivers a frame a word at a time; any LossProb > 0
// takes the per-pair loop that draws the channel PRNG in the pinned order.
// At LossProb = math.SmallestNonzeroFloat64 the per-pair loop runs but a
// draw drops a delivery only when it is exactly 0 (a 2^-53 event), so the
// two loops must agree on every observable facet of the Result — the
// reliable, no-indicator and round-truncated variants alike.
func TestMetamorphicSilentLoss(t *testing.T) {
	ForEach(t, 0x3e1d, func(t *testing.T, sc *Scenario) {
		base := sc.NewConfig(sc.Source(23))
		noIndicator, truncated := base, base
		noIndicator.DisableIndicatorVector = true
		noIndicator.MaxRounds = 4 * (sc.Network.K + 2)
		truncated.MaxRounds = 1
		for _, v := range []struct {
			name string
			cfg  core.Config
		}{{"reliable", base}, {"no-indicator", noIndicator}, {"truncated", truncated}} {
			name, cfg := v.name, v.cfg
			res, err := core.RunSession(sc.Network, cfg)
			if err != nil {
				t.Fatalf("%v seed %#x %s: %v", sc.Shape, sc.Seed, name, err)
			}
			cfg.LossProb = math.SmallestNonzeroFloat64
			cfg.LossSeed = sc.Seed
			lres, err := core.RunSession(sc.Network, cfg)
			if err != nil {
				t.Fatalf("%v seed %#x %s silent loss: %v", sc.Shape, sc.Seed, name, err)
			}
			if got, want := fingerprint(lres), fingerprint(res); got != want {
				t.Errorf("%v seed %#x %s: per-pair delivery fingerprint %s != word delivery %s",
					sc.Shape, sc.Seed, name, got, want)
			}
		}
	})
}

// TestMetamorphicSilentLossCut holds the two delivery loops to each other in
// reliable sessions cut at every round bound below the tier depth K, where
// a session can end with live pending words: Truncated, Rounds and the
// meter must match the silent-loss run's as well as the bitmap. Some of
// the cut sessions must truncate, or the property checks nothing.
func TestMetamorphicSilentLossCut(t *testing.T) {
	truncated := 0
	ForEach(t, 0xc07, func(t *testing.T, sc *Scenario) {
		base := sc.NewConfig(sc.Source(29))
		for cut := 1; cut < sc.Network.K; cut++ {
			cfg := base
			cfg.MaxRounds = cut
			res, err := core.RunSession(sc.Network, cfg)
			if err != nil {
				t.Fatalf("%v seed %#x cut %d: %v", sc.Shape, sc.Seed, cut, err)
			}
			if res.Truncated {
				truncated++
			}
			cfg.LossProb, cfg.LossSeed = math.SmallestNonzeroFloat64, sc.Seed
			lres, err := core.RunSession(sc.Network, cfg)
			if err != nil {
				t.Fatalf("%v seed %#x cut %d silent loss: %v", sc.Shape, sc.Seed, cut, err)
			}
			if got, want := fingerprint(lres), fingerprint(res); got != want {
				t.Errorf("%v seed %#x cut %d: lossy delivery fingerprint %s != reliable delivery %s",
					sc.Shape, sc.Seed, cut, got, want)
			}
		}
	})
	if truncated == 0 {
		t.Error("no cut session truncated")
	}
	t.Logf("%d cut sessions truncated", truncated)
}
