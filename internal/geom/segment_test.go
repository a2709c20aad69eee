package geom

import (
	"testing"

	"netags/internal/prng"
)

func TestSegmentIntersectsBasic(t *testing.T) {
	cross1 := Segment{Point{-1, 0}, Point{1, 0}}
	cross2 := Segment{Point{0, -1}, Point{0, 1}}
	if !cross1.Intersects(cross2) {
		t.Fatal("crossing segments not detected")
	}
	parallel := Segment{Point{-1, 1}, Point{1, 1}}
	if cross1.Intersects(parallel) {
		t.Fatal("parallel segments reported intersecting")
	}
	disjoint := Segment{Point{5, 5}, Point{6, 6}}
	if cross1.Intersects(disjoint) {
		t.Fatal("disjoint segments reported intersecting")
	}
}

func TestSegmentTouchingEndpoint(t *testing.T) {
	a := Segment{Point{0, 0}, Point{1, 0}}
	b := Segment{Point{1, 0}, Point{2, 5}}
	if !a.Intersects(b) {
		t.Fatal("shared endpoint not detected")
	}
	c := Segment{Point{0.5, 0}, Point{0.5, 3}} // T-junction
	if !a.Intersects(c) {
		t.Fatal("T-junction not detected")
	}
}

func TestSegmentCollinearOverlap(t *testing.T) {
	a := Segment{Point{0, 0}, Point{2, 0}}
	b := Segment{Point{1, 0}, Point{3, 0}}
	if !a.Intersects(b) {
		t.Fatal("collinear overlap not detected")
	}
	c := Segment{Point{3, 0}, Point{4, 0}}
	if a.Intersects(c) {
		t.Fatal("collinear disjoint segments reported intersecting")
	}
}

func TestSegmentSymmetric(t *testing.T) {
	src := prng.New(21)
	randSeg := func() Segment {
		return Segment{
			Point{src.Float64()*20 - 10, src.Float64()*20 - 10},
			Point{src.Float64()*20 - 10, src.Float64()*20 - 10},
		}
	}
	for i := 0; i < 500; i++ {
		a, b := randSeg(), randSeg()
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatalf("asymmetric intersection: %+v vs %+v", a, b)
		}
	}
}

func TestBlocked(t *testing.T) {
	wall := []Segment{{Point{0, -5}, Point{0, 5}}}
	if !Blocked(wall, Point{-3, 0}, Point{3, 0}) {
		t.Fatal("path through wall not blocked")
	}
	if Blocked(wall, Point{-3, 10}, Point{3, 10}) {
		t.Fatal("path above wall blocked")
	}
	if Blocked(nil, Point{-3, 0}, Point{3, 0}) {
		t.Fatal("no obstacles but blocked")
	}
}

// TestBlockedDirectionRegression pins a path that Intersects clears from one
// end and blocks from the other: (b−a)×(c−a) rounds differently depending on
// which endpoint is a. x is a variable so the products are rounded at run
// time, as they are for real coordinates (Go folds constant expressions
// exactly).
func TestBlockedDirectionRegression(t *testing.T) {
	x := 0.1
	a, b := Point{19 * x, 12 * x}, Point{9 * x, 2 * x}
	wall := Segment{Point{11 * x, 4 * x}, Point{16 * x, 29 * x}}
	if (Segment{a, b}).Intersects(wall) == (Segment{b, a}).Intersects(wall) {
		t.Fatal("fixture no longer exercises a direction-dependent Intersects")
	}
	ab, ba := Blocked([]Segment{wall}, a, b), Blocked([]Segment{wall}, b, a)
	if ab != ba {
		t.Fatalf("Blocked(a,b) = %v, Blocked(b,a) = %v", ab, ba)
	}
}

// TestBlockedSymmetric checks Blocked(a,b) == Blocked(b,a) over random
// grid-aligned points and walls. Grid-aligned coordinates (multiples of 0.1)
// make collinear and near-collinear triples common, which is where the
// cross products' rounding depends on the evaluation order.
func TestBlockedSymmetric(t *testing.T) {
	src := prng.New(37)
	x := 0.1
	grid := func() Point {
		return Point{float64(src.Intn(31)) * x, float64(src.Intn(31)) * x}
	}
	for i := 0; i < 200000; i++ {
		a, b := grid(), grid()
		walls := []Segment{{grid(), grid()}}
		if Blocked(walls, a, b) != Blocked(walls, b, a) {
			t.Fatalf("Blocked asymmetric: a=%+v b=%+v wall=%+v", a, b, walls[0])
		}
	}
}
