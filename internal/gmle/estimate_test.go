package gmle

import (
	"math"
	"testing"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/simtest"
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

// estimate runs EstimateWith over sessions on nw.
func estimate(nw *topology.Network, opts Options) (*Outcome, error) {
	return EstimateWith(nw.N(), simtest.Sessions(nw), opts)
}

func TestEstimateConverges(t *testing.T) {
	nw := diskNetwork(t, 3000, 6, 61)
	out, err := estimate(nw, Options{Beta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("estimation did not converge in %d frames", out.Frames)
	}
	n := float64(nw.Reachable)
	if math.Abs(out.Estimate-n) > 0.15*n {
		t.Fatalf("estimate %v, true population %v", out.Estimate, n)
	}
	if out.ProbeFrames == 0 {
		t.Error("rough phase ran no probes")
	}
	if out.RelHalfWidth > 0.1 {
		t.Errorf("converged with half-width %v > beta", out.RelHalfWidth)
	}
	if out.Clock.Total() == 0 {
		t.Error("clock not accumulated")
	}
	if out.Meter.Summarize(nil).TotalReceived == 0 {
		t.Error("meter not accumulated")
	}
}

// TestEstimateAccuracyAcrossTrials checks the eq. (2) requirement end to end
// over CCM: at β=10%, α=95%, the estimate should fall within ±10% of the
// true reachable population in (almost) all trials.
func TestEstimateAccuracyAcrossTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial statistical test")
	}
	const trials = 20
	hits := 0
	for i := 0; i < trials; i++ {
		nw := diskNetwork(t, 2000, 6, uint64(200+i))
		out, err := estimate(nw, Options{Beta: 0.1, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(nw.Reachable)
		if math.Abs(out.Estimate-n) <= 0.1*n {
			hits++
		}
	}
	if hits < trials-3 {
		t.Fatalf("only %d/%d trials within ±10%%", hits, trials)
	}
}

func TestEstimateSmallPopulation(t *testing.T) {
	// 40 tags: the first probe frame (f=64, p=1) is already informative.
	nw := diskNetwork(t, 40, 10, 67)
	out, err := estimate(nw, Options{Beta: 0.2, Seed: 3, MaxFrames: 40})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(nw.Reachable)
	if math.Abs(out.Estimate-n) > 0.5*n+5 {
		t.Fatalf("estimate %v for population %v", out.Estimate, n)
	}
}

func TestEstimateRespectsMaxFrames(t *testing.T) {
	nw := diskNetwork(t, 3000, 6, 71)
	out, err := estimate(nw, Options{Beta: 0.001, MaxFrames: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Frames > 3 {
		t.Fatalf("ran %d frames, cap was 3", out.Frames)
	}
	if out.Converged {
		t.Fatal("cannot hit beta=0.1% in 3 frames")
	}
}

func TestEstimateOptionValidation(t *testing.T) {
	nw := diskNetwork(t, 100, 6, 73)
	for _, o := range []Options{{Beta: -0.1}, {Beta: 1.5}, {Alpha: 2}} {
		if _, err := estimate(nw, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

// TestPaperSession runs the single §VI-B evaluation session the experiments
// configure: frame size 1671 with p = 1.59·f/n from the known population.
func TestPaperSession(t *testing.T) {
	nw := diskNetwork(t, 3000, 6, 79)
	res, err := core.RunSession(nw, core.Config{
		FrameSize: PaperFrameSize,
		Seed:      9,
		Sampling:  SamplingFor(PaperFrameSize, 3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bitmap.Len() != PaperFrameSize {
		t.Fatalf("frame size %d, want %d", res.Bitmap.Len(), PaperFrameSize)
	}
	// Expected busy fraction ≈ 1 - e^{-1.59·(reachable/n)} ≈ 0.80 — allow a
	// broad band.
	frac := float64(res.Bitmap.Count()) / float64(res.Bitmap.Len())
	if frac < 0.6 || frac > 0.95 {
		t.Fatalf("busy fraction %v outside the expected band", frac)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	nw := diskNetwork(t, 1000, 6, 83)
	a, err := estimate(nw, Options{Beta: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := estimate(nw, Options{Beta: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate || a.Frames != b.Frames {
		t.Fatal("estimation not deterministic for equal seeds")
	}
}
