// Package geom supplies the plane geometry beneath the simulation and the
// paper's analytical model: uniform sampling of tag positions in a disk, and
// the circle–circle intersection areas used by eqs. (6)–(9) to count tags in
// Γ_i and Γ'_i regions.
package geom

import (
	"math"

	"netags/internal/prng"
)

// Point is a position in the plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance, for comparisons that avoid the sqrt.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the distance from p to the origin.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// SampleDisk returns a point uniformly distributed in the disk of the given
// radius centered at the origin. It uses the inverse-CDF radius transform,
// so exactly two uniform draws are consumed per point (keeping deployments
// reproducible across refactors, unlike rejection sampling).
func SampleDisk(src *prng.Source, radius float64) Point {
	r := radius * math.Sqrt(src.Float64())
	theta := 2 * math.Pi * src.Float64()
	return Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
}

// DiskArea returns the area of a disk with radius r.
func DiskArea(r float64) float64 { return math.Pi * r * r }

// LensArea returns the area of the intersection of two disks: one of radius
// r1 centered at distance d from another of radius r2. This is the standard
// two-circular-segment ("lens") formula; the paper's eqs. (7) and (9) are
// instances of it, so we implement the general form once and derive both.
func LensArea(r1, r2, d float64) float64 {
	if r1 < 0 || r2 < 0 || d < 0 {
		panic("geom: negative argument to LensArea")
	}
	if d >= r1+r2 {
		return 0 // disjoint
	}
	small, large := math.Min(r1, r2), math.Max(r1, r2)
	if d <= large-small {
		return DiskArea(small) // one disk inside the other
	}
	// Clamp acos arguments: d near the boundary cases can push them a hair
	// outside [-1, 1] through rounding.
	cos1 := clamp((d*d + r1*r1 - r2*r2) / (2 * d * r1))
	cos2 := clamp((d*d + r2*r2 - r1*r1) / (2 * d * r2))
	a1 := math.Acos(cos1)
	a2 := math.Acos(cos2)
	// Heron-stable expression for twice the triangle area.
	s := (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
	if s < 0 {
		s = 0
	}
	return r1*r1*a1 + r2*r2*a2 - 0.5*math.Sqrt(s)
}

func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}
