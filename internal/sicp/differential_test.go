package sicp

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netags/internal/geom"
	"netags/internal/obs"
	"netags/internal/prng"
	"netags/internal/simtest"
	"netags/internal/topology"
)

// checkMatchesReference runs SICP, and CICP when the window allows it,
// through both Collect and the reference collector (refCollect,
// reference_test.go) and requires identical results: Collected in order,
// Clock, TreeDepth, every tag's sent and received bits, and the traced
// event stream.
func checkMatchesReference(t *testing.T, nw *topology.Network, opts Options) {
	t.Helper()
	protos := []struct {
		name     string
		got, ref func(*topology.Network, Options) (*Result, error)
	}{{"sicp", Collect, refCollect}, {"cicp", CollectCICP, refCollectCICP}}
	if opts.ContentionWindow == 1 {
		protos = protos[:1] // CICP needs a window of at least 2
	}
	for _, p := range protos {
		gotTrace, refTrace := obs.NewMemory(), obs.NewMemory()
		gotOpts, refOpts := opts, opts
		gotOpts.Tracer, refOpts.Tracer = gotTrace, refTrace
		got, err := p.got(nw, gotOpts)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, err := p.ref(nw, refOpts)
		if err != nil {
			t.Fatalf("%s reference: %v", p.name, err)
		}
		if !slices.Equal(got.Collected, want.Collected) {
			t.Fatalf("%s: collected %d IDs %v…, reference %d IDs %v…", p.name,
				len(got.Collected), firstIDs(got.Collected), len(want.Collected), firstIDs(want.Collected))
		}
		if got.Clock != want.Clock || got.TreeDepth != want.TreeDepth {
			t.Fatalf("%s: clock %+v depth %d, reference clock %+v depth %d", p.name,
				got.Clock, got.TreeDepth, want.Clock, want.TreeDepth)
		}
		for i := 0; i < nw.N(); i++ {
			if got.Meter.Sent(i) != want.Meter.Sent(i) || got.Meter.Received(i) != want.Meter.Received(i) {
				t.Fatalf("%s: tag %d (tier %d) sent/received %d/%d bits, reference %d/%d", p.name, i,
					nw.Tier[i], got.Meter.Sent(i), got.Meter.Received(i), want.Meter.Sent(i), want.Meter.Received(i))
			}
		}
		if g, w := gotTrace.Events(), refTrace.Events(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %d traced events differ from the reference's %d", p.name, len(g), len(w))
		}
	}
}

func firstIDs(ids []uint64) []uint64 { return ids[:min(len(ids), 8)] }

// TestCollectMatchesReference holds Collect and CollectCICP to the reference
// collector over uniform, clustered and walled disks at ranges from below to
// above the paper's, with default and custom IDs and several contention
// windows, over the simtest generator's scenarios (chains, disconnected
// satellites, walls), and over 10^4-tag paper deployments.
func TestCollectMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for _, r := range []float64{1.5, 2, 4, 6} {
			t.Run(fmt.Sprintf("seed=%d/r=%g", seed, r), func(t *testing.T) {
				d := geom.NewUniformDisk(600, 30, seed)
				if seed%2 == 0 {
					d = geom.NewClusteredDisk(600, 30, 1+int(seed%5), 2*r, seed)
				}
				var walls []geom.Segment
				if seed%3 == 0 {
					walls = simtest.Walls(prng.New(seed), 30)
				}
				nw, err := topology.BuildObstructed(d, 0, topology.PaperRanges(r), walls)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Seed: seed, ContentionWindow: []int{0, 2, 8, 16}[seed%4]}
				if seed%5 == 0 {
					opts.IDs = make([]uint64, nw.N())
					for i := range opts.IDs {
						opts.IDs[i] = uint64(i)*0x9e3779b97f4a7c15 + seed
					}
				}
				checkMatchesReference(t, nw, opts)
			})
		}
	}
	for seed := uint64(0); seed < 100; seed++ {
		sc := simtest.NewScenario(seed)
		checkMatchesReference(t, sc.Network, Options{Seed: sc.Seed})
	}
	// The paper's deployments: a thousands-strong tier-1 group and trees
	// many tiers deep, which the 600-tag disks above do not reach.
	for seed := uint64(1); seed <= 2; seed++ {
		for _, r := range []float64{2, 6} {
			t.Run(fmt.Sprintf("paper/seed=%d/r=%g", seed, r), func(t *testing.T) {
				nw, err := topology.Build(geom.NewUniformDisk(10000, 30, seed), 0, topology.PaperRanges(r))
				if err != nil {
					t.Fatal(err)
				}
				checkMatchesReference(t, nw, Options{Seed: seed})
			})
		}
	}
}

// FuzzSICP holds Collect and CollectCICP to the reference collector over
// byte-drawn networks: raw[0] picks the tag count, raw[1] the tag-to-tag
// range, raw[2] the contention window (1 runs SICP alone), raw[3]%3 the
// number of walls, four bytes each after it; seed places the tags and
// drives the backoffs.
func FuzzSICP(f *testing.F) {
	f.Add([]byte{200, 24, 8, 0}, uint64(1))
	f.Add([]byte{255, 4, 1, 1, 40, 128, 216, 128}, uint64(7))
	f.Add([]byte{120, 60, 2, 2, 0, 0, 255, 255, 0, 255, 255, 0}, uint64(0x5eed))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint64) {
		if len(raw) < 4 {
			return
		}
		const radius = 30
		n := int(raw[0])
		r := 0.5 + float64(raw[1]%64)/4
		cw := 1 + int(raw[2]%32)
		nwalls := int(raw[3] % 3)
		raw = raw[4:]
		coord := func(b byte) float64 { return (float64(b) - 128) * radius / 128 }
		var walls []geom.Segment
		for ; nwalls > 0 && len(raw) >= 4; nwalls-- {
			walls = append(walls, geom.Segment{
				A: geom.Point{X: coord(raw[0]), Y: coord(raw[1])},
				B: geom.Point{X: coord(raw[2]), Y: coord(raw[3])},
			})
			raw = raw[4:]
		}
		d := geom.NewUniformDisk(n, radius, seed)
		nw, err := topology.BuildObstructed(d, 0, topology.PaperRanges(r), walls)
		if err != nil {
			t.Fatalf("build rejected a valid input: %v", err)
		}
		checkMatchesReference(t, nw, Options{Seed: seed, ContentionWindow: cw})
	})
}
