package geom

// Segment is a line segment between two points — the obstacle primitive.
// The paper's introduction motivates networked tags with exactly this
// scenario: "obstacles moving in or tagged objects piling up that sometimes
// prevent signals from penetrating", leaving a reader unable to hear some
// tags directly. Walls are modeled as segments that block the weak,
// tag-originated links (tag↔tag and tag→reader); the reader's high-power
// broadcast is assumed to penetrate (the asymmetric link model of §III-A).
type Segment struct {
	A, B Point
}

// orientation returns the sign of the cross product (b−a)×(c−a): positive
// for counter-clockwise, negative for clockwise, 0 for collinear.
func orientation(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// onSegment reports whether c, known to be collinear with the segment ab,
// lies within its bounding box.
func onSegment(a, b, c Point) bool {
	return min(a.X, b.X) <= c.X && c.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= c.Y && c.Y <= max(a.Y, b.Y)
}

// Intersects reports whether the two segments share at least one point,
// including touching endpoints and collinear overlap.
func (s Segment) Intersects(o Segment) bool {
	d1 := orientation(s.A, s.B, o.A)
	d2 := orientation(s.A, s.B, o.B)
	d3 := orientation(o.A, o.B, s.A)
	d4 := orientation(o.A, o.B, s.B)
	if d1 != d2 && d3 != d4 {
		return true
	}
	// Collinear touching cases.
	switch {
	case d1 == 0 && onSegment(s.A, s.B, o.A):
		return true
	case d2 == 0 && onSegment(s.A, s.B, o.B):
		return true
	case d3 == 0 && onSegment(o.A, o.B, s.A):
		return true
	case d4 == 0 && onSegment(o.A, o.B, s.B):
		return true
	}
	return false
}

// Blocked reports whether the straight path between a and b crosses any of
// the obstacle segments. It is symmetric: Blocked(o, a, b) == Blocked(o, b, a)
// exactly. Intersects takes its cross products from the path's first
// endpoint, so rounding could otherwise block a link one way and clear it the
// other; the path's endpoints are put in lexicographic (X, Y) order first.
func Blocked(obstacles []Segment, a, b Point) bool {
	if b.X < a.X || (b.X == a.X && b.Y < a.Y) {
		a, b = b, a
	}
	path := Segment{A: a, B: b}
	for _, o := range obstacles {
		if path.Intersects(o) {
			return true
		}
	}
	return false
}
