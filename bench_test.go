// Benchmarks, one per table and figure of the paper's evaluation (§VI),
// plus ablations for the design choices DESIGN.md calls out. Each benchmark
// reports the experiment's metric via b.ReportMetric, so `go test -bench=.`
// regenerates the shape of every result. The deployments are scaled to
// n = 3,000 tags to keep bench time sane; cmd/ccmtables reproduces the
// full n = 10,000, 100-trial setting.
package netags_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"netags"
	"netags/internal/experiment"
)

const benchTags = 3000

// benchRs are the inter-tag ranges benchmarked (the paper sweeps 2–10 m).
var benchRs = []float64{2, 6, 10}

func benchSystem(b *testing.B, r float64) *netags.System {
	b.Helper()
	sys, err := netags.NewSystem(netags.SystemOptions{
		Tags:          benchTags,
		InterTagRange: r,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// gmleSession runs the §VI-B GMLE measurement session: f = 1671 with
// p = 1.59·f/n.
func gmleSession(b *testing.B, sys *netags.System, seed uint64) *netags.SessionResult {
	b.Helper()
	res, err := sys.CollectBitmap(netags.SessionOptions{
		FrameSize: 1671,
		Sampling:  1.59 * 1671 / benchTags,
		Seed:      seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// trpSession runs the §VI-B TRP measurement session: f sized for the bench
// population (the paper's 3228 is sized for n = 10,000), p = 1.
func trpSession(b *testing.B, sys *netags.System, seed uint64) *netags.SessionResult {
	b.Helper()
	res, err := sys.CollectBitmap(netags.SessionOptions{
		FrameSize: 1100, // ≈ FrameSizeFor(3000, 15, 0.95)
		Sampling:  1,
		Seed:      seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3Tiers regenerates Fig. 3: the tier count versus the
// inter-tag range.
func BenchmarkFig3Tiers(b *testing.B) {
	for _, r := range benchRs {
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) {
			tiers := 0
			for i := 0; i < b.N; i++ {
				sys, err := netags.NewSystem(netags.SystemOptions{
					Tags:          benchTags,
					InterTagRange: r,
					Seed:          uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				tiers = sys.Tiers()
			}
			b.ReportMetric(float64(tiers), "tiers")
		})
	}
}

// BenchmarkFig4ExecutionTime regenerates Fig. 4: execution time in slots for
// SICP, GMLE-CCM and TRP-CCM.
func BenchmarkFig4ExecutionTime(b *testing.B) {
	for _, r := range benchRs {
		sys := benchSystem(b, r)
		b.Run(fmt.Sprintf("SICP/r=%g", r), func(b *testing.B) {
			var slots int64
			for i := 0; i < b.N; i++ {
				res, err := sys.CollectIDs(netags.CollectOptions{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				slots = res.Cost.Slots
			}
			b.ReportMetric(float64(slots), "slots")
		})
		b.Run(fmt.Sprintf("GMLE-CCM/r=%g", r), func(b *testing.B) {
			var slots int64
			for i := 0; i < b.N; i++ {
				slots = gmleSession(b, sys, uint64(i)).Cost.Slots
			}
			b.ReportMetric(float64(slots), "slots")
		})
		b.Run(fmt.Sprintf("TRP-CCM/r=%g", r), func(b *testing.B) {
			var slots int64
			for i := 0; i < b.N; i++ {
				slots = trpSession(b, sys, uint64(i)).Cost.Slots
			}
			b.ReportMetric(float64(slots), "slots")
		})
	}
}

// benchTable factors the four energy tables: each regenerates one metric for
// the three protocols across the r sweep.
func benchTable(b *testing.B, metric string, pick func(netags.Cost) float64) {
	b.Helper()
	for _, r := range benchRs {
		sys := benchSystem(b, r)
		b.Run(fmt.Sprintf("SICP/r=%g", r), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				res, err := sys.CollectIDs(netags.CollectOptions{Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				v = pick(res.Cost)
			}
			b.ReportMetric(v, metric)
		})
		b.Run(fmt.Sprintf("GMLE-CCM/r=%g", r), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = pick(gmleSession(b, sys, uint64(i)).Cost)
			}
			b.ReportMetric(v, metric)
		})
		b.Run(fmt.Sprintf("TRP-CCM/r=%g", r), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = pick(trpSession(b, sys, uint64(i)).Cost)
			}
			b.ReportMetric(v, metric)
		})
	}
}

// BenchmarkTableIMaxSent regenerates Table I: maximum bits sent per tag.
func BenchmarkTableIMaxSent(b *testing.B) {
	benchTable(b, "bits_sent_max", func(c netags.Cost) float64 { return float64(c.MaxBitsSent) })
}

// BenchmarkTableIIMaxReceived regenerates Table II: maximum bits received
// per tag.
func BenchmarkTableIIMaxReceived(b *testing.B) {
	benchTable(b, "bits_recv_max", func(c netags.Cost) float64 { return float64(c.MaxBitsReceived) })
}

// BenchmarkTableIIIAvgSent regenerates Table III: average bits sent per tag.
func BenchmarkTableIIIAvgSent(b *testing.B) {
	benchTable(b, "bits_sent_avg", func(c netags.Cost) float64 { return c.AvgBitsSent })
}

// BenchmarkTableIVAvgReceived regenerates Table IV: average bits received
// per tag.
func BenchmarkTableIVAvgReceived(b *testing.B) {
	benchTable(b, "bits_recv_avg", func(c netags.Cost) float64 { return c.AvgBitsReceived })
}

// BenchmarkAblationIndicatorVector quantifies §III-D: how much energy the
// indicator vector saves by stopping the "rolling snowball" flood.
func BenchmarkAblationIndicatorVector(b *testing.B) {
	sys := benchSystem(b, 6)
	for _, disabled := range []bool{false, true} {
		name := "with-indicator"
		if disabled {
			name = "flooding"
		}
		b.Run(name, func(b *testing.B) {
			var sent float64
			for i := 0; i < b.N; i++ {
				res, err := sys.CollectBitmap(netags.SessionOptions{
					FrameSize:              1100,
					Seed:                   uint64(i),
					DisableIndicatorVector: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				sent = res.Cost.AvgBitsSent
			}
			b.ReportMetric(sent, "bits_sent_avg")
		})
	}
}

// BenchmarkAblationContention compares serialized SICP with contention-based
// CICP — the reason [16] (and the paper) prefer SICP.
func BenchmarkAblationContention(b *testing.B) {
	sys := benchSystem(b, 6)
	for _, contention := range []bool{false, true} {
		name := "SICP"
		if contention {
			name = "CICP"
		}
		b.Run(name, func(b *testing.B) {
			var slots int64
			for i := 0; i < b.N; i++ {
				res, err := sys.CollectIDs(netags.CollectOptions{Seed: uint64(i), Contention: contention})
				if err != nil {
					b.Fatal(err)
				}
				slots = res.Cost.Slots
			}
			b.ReportMetric(float64(slots), "slots")
		})
	}
}

// BenchmarkAblationEstimators compares the cardinality estimators the
// paper's §IV-A history discusses: the GMLE machinery versus the LoF sketch.
// Each reports its relative error and its air-time cost for the same
// deployment, making the accuracy-for-slots trade visible.
func BenchmarkAblationEstimators(b *testing.B) {
	sys := benchSystem(b, 6)
	truth := float64(sys.Reachable())
	run := func(b *testing.B, method netags.EstimateMethod) {
		var res *netags.EstimateResult
		var err error
		for i := 0; i < b.N; i++ {
			res, err = sys.EstimateCardinality(netags.EstimateOptions{
				Method: method,
				Seed:   uint64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		relErr := (res.Estimate - truth) / truth
		if relErr < 0 {
			relErr = -relErr
		}
		b.ReportMetric(relErr*100, "pct_error")
		b.ReportMetric(float64(res.Cost.Slots), "slots")
	}
	b.Run("GMLE", func(b *testing.B) { run(b, netags.EstimateGMLE) })
	b.Run("LoF", func(b *testing.B) { run(b, netags.EstimateLoF) })
}

// benchSweep runs one full experiment.Run sweep on the Quick()
// configuration (n = 10,000, r ∈ {2, 6, 10}, 3 trials) with the given
// worker count. Sequential vs parallel report identical numbers; only the
// wall clock differs. Run with `go test -bench=ExperimentQuick -benchtime=1x`
// — one iteration is a full nine-deployment sweep (~15 s sequential).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := experiment.Quick()
	cfg.Workers = workers
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunContext(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentQuickSequential is the Workers: 1 baseline of the
// sweep runner.
func BenchmarkExperimentQuickSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkExperimentQuickParallel fans the same sweep over all cores; the
// speedup over the sequential baseline is the worker pool's payoff, with
// bit-identical results (TestParallelMatchesSequential).
func BenchmarkExperimentQuickParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkEstimationEndToEnd measures the full adaptive GMLE pipeline (the
// operation a deployed system would actually run).
func BenchmarkEstimationEndToEnd(b *testing.B) {
	sys := benchSystem(b, 6)
	for i := 0; i < b.N; i++ {
		if _, err := sys.EstimateCardinality(netags.EstimateOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionEndToEnd measures one full TRP execution.
func BenchmarkDetectionEndToEnd(b *testing.B) {
	sys := benchSystem(b, 6)
	inventory := sys.ReachableIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DetectMissing(inventory, netags.DetectOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
