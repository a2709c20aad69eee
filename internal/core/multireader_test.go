package core

import (
	"testing"

	"netags/internal/geom"
	"netags/internal/topology"
)

// readerNets builds one network per reader of d.
func readerNets(t *testing.T, d *geom.Deployment, rg topology.Ranges) []*topology.Network {
	t.Helper()
	nets := make([]*topology.Network, len(d.Readers))
	for ri := range d.Readers {
		nw, err := topology.Build(d, ri, rg)
		if err != nil {
			t.Fatal(err)
		}
		nets[ri] = nw
	}
	return nets
}

// perReader runs each reader's session on its own, as RunReaders does.
func perReader(t *testing.T, nets []*topology.Network, cfg Config) []*Result {
	t.Helper()
	out := make([]*Result, len(nets))
	for ri, nw := range nets {
		rcfg := cfg
		rcfg.Reader = ri
		res, err := RunSession(nw, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		out[ri] = res
	}
	return out
}

func TestMultiReaderCombinesBitmaps(t *testing.T) {
	// Two readers far apart, each with its own chain of tags; neither
	// reader alone covers both chains.
	d := &geom.Deployment{
		Tags: []geom.Point{
			{X: -45}, {X: -40}, // reachable only from reader 0 at -60
			{X: 45}, {X: 40}, // reachable only from reader 1 at +60
		},
		Readers: []geom.Point{{X: -60}, {X: 60}},
		Radius:  70,
	}
	nets := readerNets(t, d, topology.Ranges{ReaderToTag: 30, TagToReader: 20, TagToTag: 6})
	cfg := Config{
		FrameSize: 16,
		Picker:    fixedPicker(map[int][]int{0: {1}, 1: {2}, 2: {3}, 3: {4}}),
	}
	mr, err := RunReaders(nets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{1, 2, 3, 4} {
		if !mr.Bitmap.Get(slot) {
			t.Errorf("slot %d missing from combined bitmap", slot)
		}
	}
	// Each reader alone sees only its side.
	per := perReader(t, nets, cfg)
	if per[0].Bitmap.Get(3) || per[1].Bitmap.Get(1) {
		t.Error("a reader saw bits from the other reader's side")
	}
	// Round-robin windows add up.
	wantClock := per[0].Clock
	wantClock.Add(per[1].Clock)
	if mr.Clock != wantClock {
		t.Errorf("clock = %+v, want %+v", mr.Clock, wantClock)
	}
}

func TestMultiReaderMatchesEquationOne(t *testing.T) {
	// B must equal B_1 | B_2 (eq. (1)) even when coverages overlap.
	d := geom.NewUniformDiskMultiReader(800, 30, []geom.Point{{X: -5}, {X: 5}}, 31)
	nets := readerNets(t, d, topology.PaperRanges(5))
	cfg := Config{FrameSize: 256, Seed: 2, Sampling: 1}
	mr, err := RunReaders(nets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := perReader(t, nets, cfg)
	want := per[0].Bitmap.Clone()
	want.Or(per[1].Bitmap)
	if !mr.Bitmap.Equal(want) {
		t.Fatal("combined bitmap is not the OR of per-reader bitmaps")
	}
}

func TestMultiReaderErrors(t *testing.T) {
	if _, err := RunReaders(nil, Config{FrameSize: 8}); err == nil {
		t.Error("no reader networks accepted")
	}
	d := geom.NewUniformDisk(10, 30, 1)
	if _, err := RunReaders(readerNets(t, d, topology.PaperRanges(6)), Config{FrameSize: 0}); err == nil {
		t.Error("zero frame size accepted")
	}
}
