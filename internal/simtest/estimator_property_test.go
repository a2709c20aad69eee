package simtest

import (
	"math"
	"testing"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/lof"
	"netags/internal/prng"
	"netags/internal/topology"
)

// estimatorFixture builds the fixed multi-hop network the statistical
// contract tests run on, and returns the number of reachable tags — the n
// the estimators are supposed to recover.
func estimatorFixture(t *testing.T, n int) (*topology.Network, int) {
	t.Helper()
	d := geom.NewUniformDisk(n, 30, prng.DeriveSeed(0xe57f1e, uint64(n)))
	nw, err := topology.Build(d, 0, topology.PaperRanges(6))
	if err != nil {
		t.Fatal(err)
	}
	reach := 0
	for _, tier := range nw.Tier {
		if tier > 0 {
			reach++
		}
	}
	if reach < n/2 {
		t.Fatalf("fixture degenerate: only %d of %d tags reachable", reach, n)
	}
	return nw, reach
}

// TestGMLEStatisticalContract holds the estimator to its own advertised
// statistics over CCM sessions: across many independent single-frame
// estimates the mean relative error stays near zero (consistency) and the
// spread agrees with the Fisher-information prediction within a factor —
// catching both a broken likelihood (spread too wide) and accidental reuse
// of randomness across trials (spread too narrow). The trial count is fixed
// (not NumScenarios) because the bounds below are calibrated to it.
func TestGMLEStatisticalContract(t *testing.T) {
	const trials = 200
	nw, reach := estimatorFixture(t, 400)
	f := 128
	p := gmle.SamplingFor(f, float64(reach))

	var joint gmle.Estimator
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		res, err := core.RunSession(nw, core.Config{
			FrameSize: f,
			Seed:      prng.DeriveSeed(0x6e57, uint64(i)),
			Sampling:  p,
		})
		if err != nil {
			t.Fatal(err)
		}
		zeros := f - res.Bitmap.Count()
		var single gmle.Estimator
		if err := single.AddFrame(f, p, zeros); err != nil {
			t.Fatal(err)
		}
		if err := joint.AddFrame(f, p, zeros); err != nil {
			t.Fatal(err)
		}
		est, err := single.Estimate()
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		rel := est/float64(reach) - 1
		sum += rel
		sumSq += rel * rel
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)

	// Predicted single-frame relative std from the Fisher information.
	var one gmle.Estimator
	if err := one.AddFrame(f, p, 0); err != nil {
		t.Fatal(err)
	}
	predicted := 1 / (float64(reach) * math.Sqrt(one.FisherInfo(float64(reach))))
	t.Logf("n=%d trials=%d: mean rel err %+.4f, rel std %.4f (Fisher predicts %.4f)",
		reach, trials, mean, std, predicted)

	// Mean of `trials` draws has std ≈ predicted/√trials; 4σ plus a small
	// bias allowance keeps this deterministic-seed check meaningful.
	if limit := 4*predicted/math.Sqrt(trials) + 0.01; math.Abs(mean) > limit {
		t.Errorf("single-frame estimates biased: mean rel err %+.4f exceeds %.4f", mean, limit)
	}
	if std > 1.5*predicted || std < predicted/1.5 {
		t.Errorf("single-frame spread %.4f disagrees with Fisher prediction %.4f", std, predicted)
	}

	est, err := joint.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est/float64(reach) - 1); rel > 0.02 {
		t.Errorf("joint estimate over %d frames off by %.2f%% (n̂=%.1f, n=%d)",
			trials, 100*rel, est, reach)
	}
}

// TestLoFStatisticalContract: the lottery-frame estimator, averaged over
// frames, must land within a modest factor of the true reachable count at
// several population sizes. Its per-frame σ is ≈1.12 bits of log2 n, so with
// 64 frames the mean-Z std is ≈0.14 bits — a factor-1.5 band is ≈4σ wide on
// top of the FM correction's small-n bias.
func TestLoFStatisticalContract(t *testing.T) {
	for _, n := range []int{60, 400, 1500} {
		nw, reach := estimatorFixture(t, n)
		out, err := lof.EstimateWith(nw.N(), Sessions(nw), lof.Options{
			Frames:    64,
			FrameSize: 32,
			Seed:      prng.DeriveSeed(0x10f, uint64(n)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Truncated {
			t.Fatalf("n=%d: lof session truncated", n)
		}
		ratio := out.Estimate / float64(reach)
		t.Logf("n=%d reach=%d: estimate %.1f (ratio %.3f, meanZ %.2f)", n, reach, out.Estimate, ratio, out.MeanZ)
		if ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("n=%d: LoF estimate %.1f outside factor-1.5 band of %d", n, out.Estimate, reach)
		}
	}
}

// TestLossMonotoneDegradation: raising the loss probability can only degrade
// collection. Exactly at zero loss the bitmap equals the direct one; as loss
// grows the mean collected-slot count over many independent runs must be
// non-increasing (per-run monotonicity is not guaranteed — different loss
// draws are different sample paths — so the property is stated on means,
// with a small slack for averaging noise).
func TestLossMonotoneDegradation(t *testing.T) {
	const runs = 40
	nw, _ := estimatorFixture(t, 300)
	cfg := core.Config{FrameSize: 256, Sampling: 1}

	losses := []float64{0, 0.15, 0.3, 0.5, 0.7, 0.9}
	means := make([]float64, len(losses))
	for li, loss := range losses {
		sum := 0
		for r := 0; r < runs; r++ {
			c := cfg
			c.Seed = prng.DeriveSeed(0x105e, uint64(r))
			c.LossProb = loss
			c.LossSeed = prng.DeriveSeed(0xbad, uint64(li), uint64(r))
			res, err := core.RunSession(nw, c)
			if err != nil {
				t.Fatal(err)
			}
			if loss == 0 {
				direct, err := core.DirectBitmap(nw, c)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Bitmap.Equal(direct) {
					t.Fatalf("run %d: zero-loss session differs from direct bitmap", r)
				}
			}
			sum += res.Bitmap.Count()
		}
		means[li] = float64(sum) / runs
	}
	t.Logf("mean busy slots across loss grid %v: %v", losses, means)
	slack := 0.01 * float64(cfg.FrameSize)
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]+slack {
			t.Errorf("mean busy count rose from %.1f to %.1f as loss grew %.2f→%.2f",
				means[i-1], means[i], losses[i-1], losses[i])
		}
	}
	if means[len(means)-1] >= means[0] {
		t.Errorf("heavy loss (%.2f) did not degrade collection at all: %.1f vs %.1f",
			losses[len(losses)-1], means[len(means)-1], means[0])
	}
}
