package topology_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/prng"
	"netags/internal/sicp"
	"netags/internal/simtest"
	"netags/internal/topology"
)

// pickCall is one call of a recording slot picker.
type pickCall struct {
	tagIdx int
	id     uint64
}

// recordingPicker returns a picker choosing up to two slots per tag from its
// ID, and the log of the (tagIdx, id) pairs it was called with, in call
// order.
func recordingPicker(seed uint64, f int) (core.SlotPicker, *[]pickCall) {
	var calls []pickCall
	return func(tagIdx int, id uint64) []int {
		calls = append(calls, pickCall{tagIdx, id})
		h := prng.HashID(id, seed)
		switch h % 3 {
		case 0:
			return nil
		case 1:
			return []int{int(h>>8) % f}
		}
		return []int{int(h>>8) % f, int(h>>32) % f}
	}, &calls
}

// meterRows lists a meter's per-tag counts.
func meterRows(m *energy.Meter) [][2]int64 {
	rows := make([][2]int64, m.N())
	for i := range rows {
		rows[i] = [2]int64{m.Sent(i), m.Received(i)}
	}
	return rows
}

// sessionView is every observable facet of a CCM session Result.
type sessionView struct {
	Bitmap             []int
	Rounds             int
	Clock              energy.Clock
	Truncated          bool
	NewBusyPerRound    []int
	CheckSlotsPerRound []int
	Meter              [][2]int64
}

func viewSession(res *core.Result) sessionView {
	v := sessionView{
		Rounds:             res.Rounds,
		Clock:              res.Clock,
		Truncated:          res.Truncated,
		NewBusyPerRound:    res.NewBusyPerRound,
		CheckSlotsPerRound: res.CheckSlotsPerRound,
		Meter:              meterRows(res.Meter),
	}
	res.Bitmap.ForEach(func(i int) { v.Bitmap = append(v.Bitmap, i) })
	return v
}

// collectView is every observable facet of a SICP or CICP Result.
type collectView struct {
	Collected []uint64
	Clock     energy.Clock
	TreeDepth int
	Meter     [][2]int64
}

func viewCollect(res *sicp.Result) collectView {
	return collectView{res.Collected, res.Clock, res.TreeDepth, meterRows(res.Meter)}
}

// TestNumberingInvariant runs the kernels that walk the position-numbered
// adjacency (the CCM session, SICP and CICP) on a built network and on its
// identity-numbered twin (topology.TwoPassAdjacency), whose out-of-order
// rows must split some word across masks, and requires identical output:
// the cell-sorted numbering is an internal layout, never an observable. The
// twin's positions are the tag indices themselves, so a kernel that let
// positions leak into a result, a picker call, or the lossy channel's draw
// order would diverge here.
func TestNumberingInvariant(t *testing.T) {
	const n = 800
	deployments := []struct {
		name  string
		build func(seed uint64, r float64) (*geom.Deployment, []geom.Segment)
	}{
		{"uniform", func(seed uint64, _ float64) (*geom.Deployment, []geom.Segment) {
			return geom.NewUniformDisk(n, 15, seed), nil
		}},
		{"clustered", func(seed uint64, r float64) (*geom.Deployment, []geom.Segment) {
			return geom.NewClusteredDisk(n, 15, 4, 2*r, seed), nil
		}},
		{"walled", func(seed uint64, _ float64) (*geom.Deployment, []geom.Segment) {
			return geom.NewUniformDisk(n, 15, seed), simtest.Walls(prng.New(seed), 15)
		}},
	}
	for _, dep := range deployments {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, r := range []float64{1.5, 2, 6} {
				t.Run(fmt.Sprintf("%s/seed=%d/r=%g", dep.name, seed, r), func(t *testing.T) {
					d, walls := dep.build(seed, r)
					rg := topology.Ranges{ReaderToTag: 15, TagToReader: 8, TagToTag: r}
					nw, err := topology.BuildObstructed(d, 0, rg, walls)
					if err != nil {
						t.Fatal(err)
					}
					twin := topology.TwoPassAdjacency(nw)
					if !splitsWord(twin) {
						t.Fatal("no twin row splits a word, so the backward-row draw order goes unexercised")
					}
					if !slices.Equal(nw.Tier, twin.Tier) || nw.K != twin.K || nw.Reachable != twin.Reachable {
						t.Fatalf("tiers differ: K=%d/%d Reachable=%d/%d", nw.K, twin.K, nw.Reachable, twin.Reachable)
					}
					checkSessionsInvariant(t, nw, twin, seed)
					checkCollectInvariant(t, nw, twin, seed)
				})
			}
		}
	}
}

func checkSessionsInvariant(t *testing.T, nw, twin *topology.Network, seed uint64) {
	t.Helper()
	const f = 300
	ids := make([]uint64, nw.N())
	src := prng.New(seed ^ 0x1d5)
	for i := range ids {
		ids[i] = src.Uint64()
	}
	for _, loss := range []float64{0, 0.25} {
		for _, variant := range []string{"default", "picker", "ids"} {
			name := fmt.Sprintf("loss=%g/%s", loss, variant)
			var calls [2]*[]pickCall
			var views [2]sessionView
			for j, net := range []*topology.Network{nw, twin} {
				cfg := core.Config{FrameSize: f, Seed: seed, Sampling: 0.3, LossProb: loss, LossSeed: seed + 7}
				switch variant {
				case "picker":
					cfg.Picker, calls[j] = recordingPicker(seed, f)
				case "ids":
					cfg.IDs = ids
				}
				res, err := core.RunSession(net, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				views[j] = viewSession(res)
			}
			if variant == "picker" && !slices.Equal(*calls[0], *calls[1]) {
				t.Errorf("%s: picker calls differ: %d on the built network, %d on its twin",
					name, len(*calls[0]), len(*calls[1]))
			}
			if !reflect.DeepEqual(views[0], views[1]) {
				t.Errorf("%s: session differs between the built network and its twin:\n built %+v\n twin  %+v",
					name, summary(views[0]), summary(views[1]))
			}
		}
	}
}

func checkCollectInvariant(t *testing.T, nw, twin *topology.Network, seed uint64) {
	t.Helper()
	for _, proto := range []struct {
		name string
		run  func(*topology.Network, sicp.Options) (*sicp.Result, error)
	}{{"sicp", sicp.Collect}, {"cicp", sicp.CollectCICP}} {
		var views [2]collectView
		for j, net := range []*topology.Network{nw, twin} {
			res, err := proto.run(net, sicp.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", proto.name, err)
			}
			views[j] = viewCollect(res)
		}
		if !reflect.DeepEqual(views[0], views[1]) {
			t.Errorf("%s: collection differs between the built network and its twin: clock %+v/%+v, %d/%d IDs",
				proto.name, views[0].Clock, views[1].Clock, len(views[0].Collected), len(views[1].Collected))
		}
	}
}

// splitsWord reports whether some row of nw holds one word in two masks, as
// a row that goes backwards inside a word does.
func splitsWord(nw *topology.Network) bool {
	for k := 0; k < nw.N(); k++ {
		row := nw.Masks(k)
		for j := range row {
			for _, m := range row[:j] {
				if m.Word == row[j].Word {
					return true
				}
			}
		}
	}
	return false
}

// summary shortens a session view for a failure message.
func summary(v sessionView) string {
	var sent, recv int64
	for _, m := range v.Meter {
		sent += m[0]
		recv += m[1]
	}
	return fmt.Sprintf("busy=%d rounds=%d clock=%+v truncated=%v newbusy=%v check=%v sent=%d recv=%d",
		len(v.Bitmap), v.Rounds, v.Clock, v.Truncated, v.NewBusyPerRound, v.CheckSlotsPerRound, sent, recv)
}
