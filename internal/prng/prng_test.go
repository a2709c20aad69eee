package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

// TestSourceStreamPinned pins the first few outputs against the canonical
// splitmix64 reference (Vigna, 2015, seed 0) so that any change to the
// generator (which would silently change every simulation result in the
// repository) fails loudly.
func TestSourceStreamPinned(t *testing.T) {
	s := New(0)
	got := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("draw %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestZeroValueSourceUsable(t *testing.T) {
	var s Source
	if s.Uint64() == s.Uint64() {
		t.Fatal("zero-value Source does not advance")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 97, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	const n, draws = 10, 100000
	s := New(99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestHashIDDeterministic(t *testing.T) {
	if HashID(17, 4) != HashID(17, 4) {
		t.Fatal("HashID not deterministic")
	}
	if HashID(17, 4) == HashID(18, 4) {
		t.Fatal("HashID collision on adjacent IDs (suspicious)")
	}
	if HashID(17, 4) == HashID(17, 5) {
		t.Fatal("HashID ignores seed")
	}
}

func TestSlotOfRangeProperty(t *testing.T) {
	f := func(id, seed uint64) bool {
		s := SlotOf(id, seed, 1671)
		return s >= 0 && s < 1671
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotOfUniform(t *testing.T) {
	const frame = 64
	counts := make([]int, frame)
	const draws = 64000
	for id := uint64(0); id < draws; id++ {
		counts[SlotOf(id, 12345, frame)]++
	}
	want := float64(draws) / frame
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("slot %d: %d picks, want ~%.0f", i, c, want)
		}
	}
}

func TestSlotOfPanicsOnBadFrame(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SlotOf with frameSize 0 did not panic")
		}
	}()
	SlotOf(1, 1, 0)
}

func TestParticipatesEdges(t *testing.T) {
	if !Participates(1, 2, 1.0) {
		t.Error("p=1 must always participate")
	}
	if Participates(1, 2, 0.0) {
		t.Error("p=0 must never participate")
	}
	if !Participates(1, 2, 1.5) {
		t.Error("p>1 must always participate")
	}
}

func TestParticipatesRate(t *testing.T) {
	const p, draws = 0.27, 100000
	hits := 0
	for id := uint64(0); id < draws; id++ {
		if Participates(id, 777, p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Errorf("participation rate = %v, want ~%v", got, p)
	}
}

// TestParticipatesIndependentOfSlot guards against the participation decision
// and the slot choice sharing hash bits, which would bias the bitmap.
func TestParticipatesIndependentOfSlot(t *testing.T) {
	const frame = 16
	const draws = 200000
	joint := make([]int, frame)
	participants := 0
	for id := uint64(0); id < draws; id++ {
		if Participates(id, 9, 0.5) {
			participants++
			joint[SlotOf(id, 9, frame)]++
		}
	}
	want := float64(participants) / frame
	for i, c := range joint {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("slot %d among participants: %d, want ~%.0f", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkSlotOf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = SlotOf(uint64(i), 42, 3228)
	}
}

// TestDeriveSeedPositional: the derived seed is a pure function of
// (base, coords) — repeatable, sensitive to every coordinate, and sensitive
// to coordinate order. This is what lets the experiment harness hand out
// per-trial seeds independent of loop scheduling.
func TestDeriveSeedPositional(t *testing.T) {
	a := DeriveSeed(1, 6, 0, 0)
	if a != DeriveSeed(1, 6, 0, 0) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	distinct := []uint64{
		a,
		DeriveSeed(2, 6, 0, 0), // base
		DeriveSeed(1, 7, 0, 0), // point
		DeriveSeed(1, 6, 1, 0), // trial
		DeriveSeed(1, 6, 0, 1), // stream
		DeriveSeed(1, 0, 6, 0), // coordinate order
		DeriveSeed(0),          // degenerate base
	}
	seen := map[uint64]int{}
	for i, v := range distinct {
		if j, dup := seen[v]; dup {
			t.Fatalf("cases %d and %d collide on %#x", j, i, v)
		}
		seen[v] = i
	}
}

// TestDeriveSeedSpread: seeds derived for consecutive trials must not be
// correlated in their low bits (they seed splitmix64 Sources directly).
func TestDeriveSeedSpread(t *testing.T) {
	const trials = 4096
	ones := 0
	for trial := uint64(0); trial < trials; trial++ {
		ones += int(DeriveSeed(1, 6, trial, 0) & 1)
	}
	if ones < trials/2-3*32 || ones > trials/2+3*32 {
		t.Errorf("low-bit ones = %d/%d, want ~%d", ones, trials, trials/2)
	}
}
