package core_test

import (
	"fmt"
	"sync"
	"testing"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/topology"
	"netags/internal/trp"
)

// paperTags is the paper's §VI-A population: 10^4 tags in a 30 m disk.
const paperTags = 10000

// paperNetworks caches one paper-density network per tag-to-tag range r, so
// -count repetitions measure sessions, not topology builds.
var paperNetworks sync.Map // r -> *topology.Network

func paperNetwork(tb testing.TB, r float64) *topology.Network {
	tb.Helper()
	if v, ok := paperNetworks.Load(r); ok {
		return v.(*topology.Network)
	}
	nw, err := topology.Build(geom.NewUniformDisk(paperTags, 30, 1), 0, topology.PaperRanges(r))
	if err != nil {
		tb.Fatal(err)
	}
	paperNetworks.Store(r, nw)
	return nw
}

// BenchmarkSessionPaper measures the two §VI-B sessions a paper trial runs,
// at the paper's settings: TRP with f = 3228 and p = 1, GMLE with f = 1671
// and p = gmle.SamplingFor(1671, n), over r ∈ {2, 6, 10}. trp-loss is the
// TRP session on the lossy channel (LossProb 0.1) at r = 6, which tracks the
// cost of the lossy kernel's tag-ordered delivery. The Runner is warm, as in
// a sweep worker.
func BenchmarkSessionPaper(b *testing.B) {
	trpCfg := core.Config{FrameSize: trp.PaperFrameSize, Seed: 7, Sampling: 1}
	lossyCfg := trpCfg
	lossyCfg.LossProb, lossyCfg.LossSeed = 0.1, 8
	protocols := []struct {
		name   string
		cfg    core.Config
		ranges []float64
	}{
		{"trp", trpCfg, []float64{2, 6, 10}},
		{"gmle", core.Config{
			FrameSize: gmle.PaperFrameSize,
			Seed:      7,
			Sampling:  gmle.SamplingFor(gmle.PaperFrameSize, paperTags),
		}, []float64{2, 6, 10}},
		{"trp-loss", lossyCfg, []float64{6}},
	}
	for _, p := range protocols {
		for _, r := range p.ranges {
			b.Run(fmt.Sprintf("%s/r=%g", p.name, r), func(b *testing.B) {
				nw := paperNetwork(b, r)
				run := core.NewRunner()
				if _, err := run.Run(nw, p.cfg); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := run.Run(nw, p.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
