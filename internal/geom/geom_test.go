package geom

import (
	"math"
	"testing"

	"netags/internal/prng"
)

func TestDist(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Fatalf("Dist2 = %v, want 25", got)
	}
	if got := b.Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestSampleDiskInDisk(t *testing.T) {
	src := prng.New(1)
	for i := 0; i < 10000; i++ {
		p := SampleDisk(src, 30)
		if p.Norm() > 30 {
			t.Fatalf("point %v outside disk", p)
		}
	}
}

// TestSampleDiskUniform checks that the radial CDF matches r^2/R^2: the
// fraction of points within radius r of the center must be (r/R)^2.
func TestSampleDiskUniform(t *testing.T) {
	src := prng.New(2)
	const n = 200000
	const radius = 30.0
	counts := make([]int, 3)
	cut := []float64{10, 20, 25}
	for i := 0; i < n; i++ {
		p := SampleDisk(src, radius)
		d := p.Norm()
		for j, c := range cut {
			if d <= c {
				counts[j]++
			}
		}
	}
	for j, c := range cut {
		want := (c / radius) * (c / radius)
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.005 {
			t.Errorf("P(d<=%v) = %v, want %v", c, got, want)
		}
	}
}

func TestLensAreaDisjoint(t *testing.T) {
	if got := LensArea(1, 1, 3); got != 0 {
		t.Fatalf("disjoint lens area = %v, want 0", got)
	}
	if got := LensArea(1, 1, 2); got != 0 {
		t.Fatalf("tangent lens area = %v, want 0", got)
	}
}

func TestLensAreaContained(t *testing.T) {
	want := DiskArea(1)
	if got := LensArea(1, 5, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("contained lens area = %v, want %v", got, want)
	}
	// Symmetric argument order.
	if got := LensArea(5, 1, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("contained lens area (swapped) = %v, want %v", got, want)
	}
}

func TestLensAreaEqualCirclesHalfOverlap(t *testing.T) {
	// Two unit circles at distance 1: known closed form
	// 2*acos(1/2) - sqrt(3)/2.
	want := 2*math.Acos(0.5) - math.Sqrt(3)/2
	if got := LensArea(1, 1, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("lens area = %v, want %v", got, want)
	}
}

func TestLensAreaSymmetric(t *testing.T) {
	for _, tc := range []struct{ r1, r2, d float64 }{
		{3, 7, 5}, {2, 2.5, 4}, {10, 4, 8},
	} {
		a := LensArea(tc.r1, tc.r2, tc.d)
		b := LensArea(tc.r2, tc.r1, tc.d)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("LensArea(%v,%v,%v) not symmetric: %v vs %v", tc.r1, tc.r2, tc.d, a, b)
		}
	}
}

// TestLensAreaMonteCarlo validates the closed form against direct sampling,
// which is exactly how the analysis package consumes it.
func TestLensAreaMonteCarlo(t *testing.T) {
	src := prng.New(7)
	for _, tc := range []struct{ r1, r2, d float64 }{
		{6, 20, 22},  // small disk poking out of a big one
		{12, 20, 15}, // heavy overlap
		{5, 5, 6},    // equal circles
	} {
		const n = 400000
		in := 0
		c1 := Point{tc.d, 0}
		for i := 0; i < n; i++ {
			p := SampleDisk(src, tc.r1)
			p.X += c1.X
			if p.Norm() <= tc.r2 {
				in++
			}
		}
		mc := DiskArea(tc.r1) * float64(in) / n
		got := LensArea(tc.r1, tc.r2, tc.d)
		if math.Abs(mc-got) > 0.02*DiskArea(tc.r1)+0.5 {
			t.Errorf("LensArea(%v,%v,%v) = %v, Monte Carlo says %v", tc.r1, tc.r2, tc.d, got, mc)
		}
	}
}

// TestDiskOutsideArea: the part of a tag's reach disk outside the reader's
// coverage (the shadow zone S_i of Fig. 2(b)) is DiskArea − LensArea.
func TestDiskOutsideArea(t *testing.T) {
	outside := func(r1, r2, d float64) float64 { return DiskArea(r1) - LensArea(r1, r2, d) }
	// A disk fully inside another has zero outside area.
	if got := outside(1, 10, 2); math.Abs(got) > 1e-12 {
		t.Fatalf("outside area = %v, want 0", got)
	}
	// A disjoint disk is fully outside.
	if got := outside(1, 1, 5); math.Abs(got-DiskArea(1)) > 1e-12 {
		t.Fatalf("outside area = %v, want full disk", got)
	}
}

func TestNewUniformDisk(t *testing.T) {
	d := NewUniformDisk(500, 30, 42)
	if d.N() != 500 {
		t.Fatalf("N = %d, want 500", d.N())
	}
	if len(d.Readers) != 1 || d.Readers[0] != (Point{}) {
		t.Fatal("reader not at origin")
	}
	for _, p := range d.Tags {
		if p.Norm() > 30 {
			t.Fatalf("tag outside disk: %v", p)
		}
	}
	// Reproducible.
	d2 := NewUniformDisk(500, 30, 42)
	for i := range d.Tags {
		if d.Tags[i] != d2.Tags[i] {
			t.Fatal("deployment not reproducible for equal seeds")
		}
	}
	// Different seeds differ.
	d3 := NewUniformDisk(500, 30, 43)
	same := 0
	for i := range d.Tags {
		if d.Tags[i] == d3.Tags[i] {
			same++
		}
	}
	if same == len(d.Tags) {
		t.Fatal("different seeds produced identical deployment")
	}
}

func TestDensity(t *testing.T) {
	d := NewUniformDisk(10000, 30, 1)
	want := 10000 / (math.Pi * 900)
	if math.Abs(d.Density()-want) > 1e-9 {
		t.Fatalf("Density = %v, want %v", d.Density(), want)
	}
}

func TestRemove(t *testing.T) {
	d := NewUniformDisk(10, 30, 5)
	nd, orig := d.Remove([]int{0, 3, 9})
	if nd.N() != 7 {
		t.Fatalf("N after Remove = %d, want 7", nd.N())
	}
	if len(orig) != 7 {
		t.Fatalf("orig len = %d, want 7", len(orig))
	}
	for newIdx, oldIdx := range orig {
		if nd.Tags[newIdx] != d.Tags[oldIdx] {
			t.Fatalf("position mismatch at %d", newIdx)
		}
		if oldIdx == 0 || oldIdx == 3 || oldIdx == 9 {
			t.Fatalf("removed index %d survived", oldIdx)
		}
	}
	// Original untouched.
	if d.N() != 10 {
		t.Fatal("Remove mutated the original deployment")
	}
}

func TestRemoveDuplicateIndices(t *testing.T) {
	d := NewUniformDisk(5, 30, 5)
	nd, _ := d.Remove([]int{2, 2, 2})
	if nd.N() != 4 {
		t.Fatalf("N = %d, want 4", nd.N())
	}
}

func TestMultiReaderDeployment(t *testing.T) {
	readers := []Point{{-15, 0}, {15, 0}}
	d := NewUniformDiskMultiReader(100, 30, readers, 9)
	if len(d.Readers) != 2 {
		t.Fatalf("readers = %d, want 2", len(d.Readers))
	}
	readers[0] = Point{99, 99} // caller mutation must not leak in
	if d.Readers[0] != (Point{-15, 0}) {
		t.Fatal("reader slice aliased caller memory")
	}
}

func TestNewClusteredDisk(t *testing.T) {
	d := NewClusteredDisk(2000, 30, 5, 3, 55)
	if d.N() != 2000 {
		t.Fatalf("N = %d, want 2000", d.N())
	}
	for _, p := range d.Tags {
		if p.Norm() > 30 {
			t.Fatalf("tag outside disk: %v", p)
		}
	}
	// Reproducible.
	d2 := NewClusteredDisk(2000, 30, 5, 3, 55)
	for i := range d.Tags {
		if d.Tags[i] != d2.Tags[i] {
			t.Fatal("clustered deployment not reproducible")
		}
	}
	// Actually clustered: mean nearest-neighbor distance well below a
	// uniform deployment of the same size.
	nn := func(dep *Deployment) float64 {
		sum := 0.0
		for i, p := range dep.Tags[:200] {
			best := math.Inf(1)
			for j, q := range dep.Tags {
				if i == j {
					continue
				}
				if dd := p.Dist(q); dd < best {
					best = dd
				}
			}
			sum += best
		}
		return sum / 200
	}
	u := NewUniformDisk(2000, 30, 55)
	if nn(d) >= nn(u)*0.8 {
		t.Fatalf("clustered NN distance %.3f not well below uniform %.3f", nn(d), nn(u))
	}
}

func TestNewClusteredDiskDefaults(t *testing.T) {
	d := NewClusteredDisk(100, 30, 0, 0, 1) // degenerate params fall back
	if d.N() != 100 {
		t.Fatalf("N = %d, want 100", d.N())
	}
}

func TestGaussianMoments(t *testing.T) {
	src := prng.New(9)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := gaussian(src)
		sum += g
		sq += g * g
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("gaussian variance = %v, want ~1", variance)
	}
}
