package geom

import (
	"math"
	"testing"
)

// BenchmarkDeployPaper times the deployment a paper trial draws: 10^4 tags
// uniform in a 30 m disk (§VI-A).
func BenchmarkDeployPaper(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewUniformDisk(10000, 30, 1)
	}
}

// BenchmarkDeployN1e5 times the deployment of a scale-1e5 survey: 10^5 tags
// uniform in a disk of radius 300·√0.1 m with one reader at the centre, as
// the survey's NewSystem draws it.
func BenchmarkDeployN1e5(b *testing.B) {
	radius := 300 * math.Sqrt(0.1)
	readers := []Point{{}}
	b.ReportAllocs()
	for b.Loop() {
		NewUniformDiskMultiReader(100000, radius, readers, 1)
	}
}
