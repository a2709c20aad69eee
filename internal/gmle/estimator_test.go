package gmle

import (
	"math"
	"testing"

	"netags/internal/prng"
)

// simulateFrame draws the idle-slot count of one (f, p) frame over n tags.
func simulateFrame(src *prng.Source, n, f int, p float64) int {
	busy := make([]bool, f)
	for i := 0; i < n; i++ {
		if src.Float64() < p {
			busy[src.Intn(f)] = true
		}
	}
	zeros := 0
	for _, b := range busy {
		if !b {
			zeros++
		}
	}
	return zeros
}

func TestAddFrameValidation(t *testing.T) {
	var e Estimator
	bad := []struct {
		f     int
		p     float64
		zeros int
	}{
		{0, 0.5, 0}, {-1, 0.5, 0},
		{10, 0, 0}, {10, -0.1, 0}, {10, 1.1, 0},
		{10, 0.5, -1}, {10, 0.5, 11},
	}
	for i, c := range bad {
		if err := e.AddFrame(c.f, c.p, c.zeros); err == nil {
			t.Errorf("case %d: AddFrame(%v) accepted", i, c)
		}
	}
	if len(e.frames) != 0 {
		t.Fatal("rejected frames were recorded")
	}
}

func TestEstimateErrors(t *testing.T) {
	var e Estimator
	if _, err := e.Estimate(); err != ErrNoFrames {
		t.Fatalf("err = %v, want ErrNoFrames", err)
	}
	if err := e.AddFrame(10, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(); err != ErrSaturated {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
}

func TestEstimateAllIdleIsZero(t *testing.T) {
	var e Estimator
	if err := e.AddFrame(100, 1, 100); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("estimate = %v, want 0 for an all-idle frame", got)
	}
}

func TestEstimateSingleFrameClosedForm(t *testing.T) {
	// For one frame the MLE has the closed form n = ln(z/f)/ln(1-p/f).
	var e Estimator
	const f, p = 1000, 0.4
	const zeros = 300
	if err := e.AddFrame(f, p, zeros); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(float64(zeros)/f) / math.Log1p(-p/f)
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
}

func TestEstimateRecoversPopulation(t *testing.T) {
	src := prng.New(41)
	for _, n := range []int{500, 5000, 20000} {
		var e Estimator
		f := 1000
		p := SamplingFor(f, float64(n))
		for j := 0; j < 10; j++ {
			zeros := simulateFrame(src, n, f, p)
			if err := e.AddFrame(f, p, zeros); err != nil {
				t.Fatal(err)
			}
		}
		got, err := e.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-float64(n)) > 0.08*float64(n) {
			t.Errorf("n=%d: estimate %v off by more than 8%%", n, got)
		}
	}
}

func TestEstimateMixedFrames(t *testing.T) {
	// The generalized estimator must combine frames with different (f, p).
	src := prng.New(43)
	const n = 8000
	var e Estimator
	for _, cfg := range []struct {
		f int
		p float64
	}{{64, 1}, {64, 0.05}, {1000, 0.2}, {2000, 0.4}} {
		zeros := simulateFrame(src, n, cfg.f, cfg.p)
		if err := e.AddFrame(cfg.f, cfg.p, zeros); err != nil {
			t.Fatal(err)
		}
	}
	got, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-n) > 0.15*n {
		t.Errorf("mixed-frame estimate %v, want ~%v", got, n)
	}
}

func TestFisherInfoPositive(t *testing.T) {
	var e Estimator
	if err := e.AddFrame(1000, 0.3, 400); err != nil {
		t.Fatal(err)
	}
	if info := e.FisherInfo(5000); info <= 0 {
		t.Fatalf("FisherInfo = %v, want > 0", info)
	}
	// More frames → more information.
	before := e.FisherInfo(5000)
	if err := e.AddFrame(1000, 0.3, 400); err != nil {
		t.Fatal(err)
	}
	if after := e.FisherInfo(5000); after <= before {
		t.Fatalf("information did not grow: %v -> %v", before, after)
	}
}

func TestRelHalfWidthShrinksWithFrames(t *testing.T) {
	src := prng.New(47)
	const n = 5000
	var e Estimator
	f := 1000
	p := SamplingFor(f, n)
	var prev float64 = math.Inf(1)
	for j := 0; j < 5; j++ {
		if err := e.AddFrame(f, p, simulateFrame(src, n, f, p)); err != nil {
			t.Fatal(err)
		}
		nHat, err := e.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		w := e.RelHalfWidth(nHat, 0.95)
		if w >= prev {
			t.Fatalf("frame %d: half-width %v did not shrink from %v", j+1, w, prev)
		}
		prev = w
	}
}

func TestRelHalfWidthDegenerate(t *testing.T) {
	var e Estimator
	if w := e.RelHalfWidth(0, 0.95); !math.IsInf(w, 1) {
		t.Fatalf("half-width at n=0 should be +Inf, got %v", w)
	}
	if w := e.RelHalfWidth(100, 0.95); !math.IsInf(w, 1) {
		t.Fatalf("half-width with no frames should be +Inf, got %v", w)
	}
}

func TestZQuantile(t *testing.T) {
	if z := zQuantile(0.95); math.Abs(z-1.959964) > 1e-4 {
		t.Fatalf("z(0.95) = %v, want 1.96", z)
	}
	if z := zQuantile(0.99); math.Abs(z-2.575829) > 1e-4 {
		t.Fatalf("z(0.99) = %v, want 2.576", z)
	}
}

func TestFrameSizeFor(t *testing.T) {
	f, err := FrameSizeFor(0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Delta-method bound lands near 1406; the paper's more conservative
	// derivation gives 1671. Assert the ballpark.
	if f < 1200 || f > 1800 {
		t.Fatalf("FrameSizeFor(0.05, 0.95) = %d, want ~1400", f)
	}
	// Tighter accuracy needs a (quadratically) bigger frame.
	f2, err := FrameSizeFor(0.025, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if f2 < 3*f {
		t.Fatalf("halving beta should ~quadruple f: %d -> %d", f, f2)
	}
	for _, bad := range [][2]float64{{0, 0.95}, {1, 0.95}, {0.05, 0}, {0.05, 1}} {
		if _, err := FrameSizeFor(bad[0], bad[1]); err == nil {
			t.Errorf("FrameSizeFor(%v, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestSamplingFor(t *testing.T) {
	if p := SamplingFor(1671, 10000); math.Abs(p-1.59*1671/10000) > 1e-12 {
		t.Fatalf("p = %v, want paper value", p)
	}
	if p := SamplingFor(1000, 100); p != 1 {
		t.Fatalf("p = %v, want clamp to 1", p)
	}
	if p := SamplingFor(1000, 0); p != 1 {
		t.Fatalf("p = %v for n=0, want 1", p)
	}
}

// TestEstimatorCoverage is the statistical heart: the (1−β, α) requirement
// of eq. (2) should hold across repeated single-frame runs at the derived
// frame size.
func TestEstimatorCoverage(t *testing.T) {
	const n = 10000
	const trials = 120
	beta, alpha := 0.05, 0.95
	f, err := FrameSizeFor(beta, alpha)
	if err != nil {
		t.Fatal(err)
	}
	p := SamplingFor(f, n)
	src := prng.New(53)
	hits := 0
	for i := 0; i < trials; i++ {
		var e Estimator
		if err := e.AddFrame(f, p, simulateFrame(src, n, f, p)); err != nil {
			t.Fatal(err)
		}
		nHat, err := e.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(nHat-n) <= beta*n {
			hits++
		}
	}
	// α = 95% with 120 trials: 3σ slack ≈ 6 misses below expectation.
	if hits < 102 {
		t.Fatalf("coverage %d/%d below the 95%% requirement", hits, trials)
	}
}

// TestZeroEstimate: on one frame the MLE is the classic zero estimator of
// Kodialam & Nandagopal [5], n̂ = ln(z/f)/ln(1 − p/f), which GMLE
// generalizes, and a frame with no idle slot has no finite estimate.
func TestZeroEstimate(t *testing.T) {
	var e Estimator
	const f, p, zeros = 1000, 0.4, 300
	if err := e.AddFrame(f, p, zeros); err != nil {
		t.Fatal(err)
	}
	mle, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	ze := math.Log(float64(zeros)/f) / math.Log1p(-p/f)
	if math.Abs(mle-ze) > 1e-2*ze {
		t.Fatalf("ZE %v disagrees with single-frame MLE %v", ze, mle)
	}
	var saturated Estimator
	if err := saturated.AddFrame(f, p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := saturated.Estimate(); err != ErrSaturated {
		t.Fatalf("saturated frame err = %v, want ErrSaturated", err)
	}
}
