package experiment

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkSweepWorkers runs one small full sweep per iteration at several
// worker counts. Results are bit-identical across counts (seeds derive from
// grid position, not execution order), so the only thing that moves is wall
// clock — the point of the benchmark. On a single-core runner the counts
// converge; the gate's tolerance absorbs that.
func BenchmarkSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Paper()
			cfg.N = 400
			cfg.Trials = 2
			cfg.RValues = []float64{4, 8}
			cfg.Protocols = []Protocol{SICP, GMLECCM}
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
