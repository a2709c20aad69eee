// Package stats provides the small summary statistics the experiment
// harness aggregates across simulation trials (the paper averages every
// reported number over 100 independent deployments).
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations with Welford's online algorithm, so a
// million trials cost O(1) memory and no catastrophic cancellation.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 with no observations).
func (s *Sample) Mean() float64 { return s.mean }

// Min and Max return the observed extremes (0 with no observations).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval on the mean.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String renders "mean ± ci95" with adaptive precision.
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g", s.Mean(), s.CI95())
}
