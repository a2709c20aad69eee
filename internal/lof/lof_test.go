package lof

import (
	"math"
	"testing"

	"netags/internal/geom"
	"netags/internal/simtest"
	"netags/internal/topology"
)

// estimate runs EstimateWith over sessions on nw.
func estimate(nw *topology.Network, opts Options) (*Outcome, error) {
	return EstimateWith(nw.N(), simtest.Sessions(nw), opts)
}

func diskNetwork(t *testing.T, n int, r float64, seed uint64) *topology.Network {
	t.Helper()
	d := geom.NewUniformDisk(n, 30, seed)
	nw, err := topology.Build(d, 0, topology.PaperRanges(r))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestPickerGeometric(t *testing.T) {
	pick := Picker(7, 32)
	counts := make([]int, 32)
	const draws = 200000
	for id := uint64(0); id < draws; id++ {
		slots := pick(0, id)
		if len(slots) != 1 {
			t.Fatalf("picker returned %d slots", len(slots))
		}
		counts[slots[0]]++
	}
	// Slot j should hold ≈ draws·2^-(j+1).
	for j := 0; j < 8; j++ {
		want := float64(draws) * math.Exp2(-float64(j+1))
		if math.Abs(float64(counts[j])-want) > 6*math.Sqrt(want) {
			t.Errorf("slot %d: %d picks, want ~%.0f", j, counts[j], want)
		}
	}
}

func TestPickerClamped(t *testing.T) {
	pick := Picker(7, 4)
	for id := uint64(0); id < 100000; id++ {
		if s := pick(0, id)[0]; s < 0 || s >= 4 {
			t.Fatalf("slot %d outside 4-slot frame", s)
		}
	}
}

func TestFirstIdle(t *testing.T) {
	busy := map[int]bool{0: true, 1: true, 3: true}
	if got := FirstIdle(func(i int) bool { return busy[i] }, 8); got != 2 {
		t.Fatalf("FirstIdle = %d, want 2", got)
	}
	if got := FirstIdle(func(int) bool { return true }, 8); got != 8 {
		t.Fatalf("all-busy FirstIdle = %d, want 8", got)
	}
	if got := FirstIdle(func(int) bool { return false }, 8); got != 0 {
		t.Fatalf("all-idle FirstIdle = %d, want 0", got)
	}
}

func TestEstimateBallpark(t *testing.T) {
	// FM sketches are coarse; assert a generous 0.5x–2x band.
	for _, n := range []int{500, 3000} {
		nw := diskNetwork(t, n, 6, uint64(400+n))
		out, err := estimate(nw, Options{Seed: 9, Frames: 48})
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(nw.Reachable)
		if out.Estimate < truth/2 || out.Estimate > truth*2 {
			t.Errorf("n=%d: LoF estimate %.0f outside [%.0f, %.0f]",
				n, out.Estimate, truth/2, truth*2)
		}
		if out.Frames != 48 || out.Clock.Total() == 0 {
			t.Errorf("n=%d: costs not tracked: %+v", n, out)
		}
	}
}

func TestEstimateShortFramesAreCheap(t *testing.T) {
	// The whole point of LoF: 32-slot frames, so even 48 of them cost far
	// fewer slots than one GMLE frame (1671 slots).
	nw := diskNetwork(t, 2000, 6, 401)
	out, err := estimate(nw, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Clock.Total() > 8000 {
		t.Errorf("LoF cost %d slots; expected lightweight frames", out.Clock.Total())
	}
}

func TestEstimateValidation(t *testing.T) {
	nw := diskNetwork(t, 50, 6, 402)
	if _, err := estimate(nw, Options{Frames: -1}); err == nil {
		t.Error("negative frame count accepted")
	}
}

func TestEstimateDeterministic(t *testing.T) {
	nw := diskNetwork(t, 500, 6, 403)
	a, err := estimate(nw, Options{Seed: 5, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := estimate(nw, Options{Seed: 5, Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Fatal("LoF not deterministic for equal seeds")
	}
}
