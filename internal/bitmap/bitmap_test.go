package bitmap

import (
	"testing"
	"testing/quick"

	"netags/internal/prng"
)

// fromIndices returns an n-bit bitmap with the given bits set.
func fromIndices(n int, idx []int) *Bitmap {
	b := New(n)
	for _, i := range idx {
		b.Set(i)
	}
	return b
}

func TestNewEmpty(t *testing.T) {
	b := New(100)
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	if b.Count() != 0 || b.Any() {
		t.Fatal("new bitmap not empty")
	}
	if b.Zeros() != 100 {
		t.Fatalf("Zeros = %d, want 100", b.Zeros())
	}
}

func TestNewZeroLength(t *testing.T) {
	b := New(0)
	if b.Count() != 0 || b.Any() {
		t.Fatal("zero-length bitmap misbehaves")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	b := New(130) // crosses word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestSetIdempotent(t *testing.T) {
	b := New(10)
	b.Set(3)
	b.Set(3)
	if b.Count() != 1 {
		t.Fatalf("Count = %d after double Set, want 1", b.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	b := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestOr(t *testing.T) {
	a := fromIndices(100, []int{1, 50, 99})
	b := fromIndices(100, []int{1, 2, 64})
	a.Or(b)
	want := fromIndices(100, []int{1, 2, 50, 64, 99})
	if !a.Equal(want) {
		t.Fatalf("Or = %v, want %v", a, want)
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Or with length mismatch did not panic")
		}
	}()
	New(10).Or(New(11))
}

func TestAndNot(t *testing.T) {
	a := fromIndices(100, []int{1, 2, 3, 64})
	b := fromIndices(100, []int{2, 64, 99})
	a.AndNot(b)
	want := fromIndices(100, []int{1, 3})
	if !a.Equal(want) {
		t.Fatalf("AndNot = %v, want %v", a, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fromIndices(100, []int{5})
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Get(5) {
		t.Fatal("Clone lost bits")
	}
}

func TestReset(t *testing.T) {
	a := fromIndices(100, []int{0, 50, 99})
	a.Reset()
	if a.Any() {
		t.Fatal("Reset left bits set")
	}
}

func TestForEachAndIndices(t *testing.T) {
	idx := []int{0, 7, 63, 64, 90}
	a := fromIndices(91, idx)
	got := a.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices len = %d, want %d", len(got), len(idx))
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], idx[i])
		}
	}
}

func TestContainsAll(t *testing.T) {
	a := fromIndices(100, []int{1, 2, 3})
	b := fromIndices(100, []int{1, 3})
	if !a.ContainsAll(b) {
		t.Fatal("superset not detected")
	}
	if b.ContainsAll(a) {
		t.Fatal("subset wrongly reported as superset")
	}
	if a.ContainsAll(New(99)) {
		t.Fatal("length mismatch must not report containment")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(64).Equal(New(65)) {
		t.Fatal("bitmaps of different lengths reported equal")
	}
}

func TestString(t *testing.T) {
	a := fromIndices(5, []int{0, 3})
	if got := a.String(); got != "10010" {
		t.Fatalf("String = %q, want 10010", got)
	}
	long := New(200)
	if got := long.String(); len(got) != 131 { // 128 bits + "..."
		t.Fatalf("long String length = %d, want 131", len(got))
	}
}

// Property: Count equals the number of distinct indices set.
func TestCountMatchesDistinctSets(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		b := New(n)
		distinct := map[int]bool{}
		for _, r := range raw {
			i := int(r)
			b.Set(i)
			distinct[i] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Or is commutative and idempotent on random bitmaps.
func TestOrProperties(t *testing.T) {
	src := prng.New(11)
	randBitmap := func(n int) *Bitmap {
		b := New(n)
		for i := 0; i < n/3; i++ {
			b.Set(src.Intn(n))
		}
		return b
	}
	for trial := 0; trial < 50; trial++ {
		n := 64 + src.Intn(400)
		a, b := randBitmap(n), randBitmap(n)
		ab := a.Clone()
		ab.Or(b)
		ba := b.Clone()
		ba.Or(a)
		if !ab.Equal(ba) {
			t.Fatal("Or not commutative")
		}
		abb := ab.Clone()
		abb.Or(b)
		if !abb.Equal(ab) {
			t.Fatal("Or not idempotent")
		}
		if !ab.ContainsAll(a) || !ab.ContainsAll(b) {
			t.Fatal("Or result does not contain operands")
		}
	}
}

// Property: the union's zero count never exceeds either operand's.
func TestZerosMonotoneUnderOr(t *testing.T) {
	src := prng.New(13)
	for trial := 0; trial < 50; trial++ {
		n := 64 + src.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n/4; i++ {
			a.Set(src.Intn(n))
			b.Set(src.Intn(n))
		}
		za := a.Zeros()
		a.Or(b)
		if a.Zeros() > za {
			t.Fatal("Or increased zero count")
		}
	}
}

func BenchmarkOr(b *testing.B) {
	x, y := New(3228), New(3228)
	for i := 0; i < 3228; i += 3 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkForEach(b *testing.B) {
	x := New(3228)
	for i := 0; i < 3228; i += 5 {
		x.Set(i)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(j int) { sink += j })
	}
	_ = sink
}
