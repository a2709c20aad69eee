package stats

import (
	"math"
	"testing"

	"netags/internal/prng"
)

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("empty sample not all-zero")
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 {
		t.Fatalf("mean/min/max = %v/%v/%v, want 7", s.Mean(), s.Min(), s.Max())
	}
	if s.Variance() != 0 {
		t.Fatal("single observation has nonzero variance")
	}
}

func TestKnownMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestNegativeValues(t *testing.T) {
	var s Sample
	s.Add(-5)
	s.Add(5)
	if s.Mean() != 0 || s.Min() != -5 || s.Max() != 5 {
		t.Fatalf("mean/min/max = %v/%v/%v", s.Mean(), s.Min(), s.Max())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := prng.New(3)
	var small, large Sample
	for i := 0; i < 10; i++ {
		small.Add(src.Float64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(src.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v -> %v", small.CI95(), large.CI95())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	src := prng.New(5)
	var s Sample
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = src.Float64()*100 - 50
		s.Add(xs[i])
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varSum := 0.0
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	naiveVar := varSum / float64(len(xs)-1)
	if math.Abs(s.Mean()-mean) > 1e-9 {
		t.Fatalf("mean = %v, naive %v", s.Mean(), mean)
	}
	if math.Abs(s.Variance()-naiveVar) > 1e-9 {
		t.Fatalf("variance = %v, naive %v", s.Variance(), naiveVar)
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Fatal("empty String")
	}
}
