package energy

import (
	"math"
	"strings"
	"testing"
)

func TestMeterBasics(t *testing.T) {
	m := NewMeter(3)
	if m.N() != 3 {
		t.Fatalf("N = %d, want 3", m.N())
	}
	m.AddSent(0, 10)
	m.AddSent(0, 5)
	m.AddReceived(2, 7)
	if m.Sent(0) != 15 {
		t.Fatalf("Sent(0) = %d, want 15", m.Sent(0))
	}
	if m.Sent(1) != 0 || m.Received(1) != 0 {
		t.Fatal("untouched tag has nonzero counts")
	}
	if m.Received(2) != 7 {
		t.Fatalf("Received(2) = %d, want 7", m.Received(2))
	}
}

func TestSummarizeAll(t *testing.T) {
	m := NewMeter(4)
	m.AddSent(0, 10)
	m.AddSent(1, 30)
	m.AddReceived(2, 100)
	m.AddReceived(3, 50)
	s := m.Summarize(nil)
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	if s.MaxSent != 30 || s.MaxReceived != 100 {
		t.Fatalf("max = %d/%d, want 30/100", s.MaxSent, s.MaxReceived)
	}
	if s.TotalSent != 40 || s.TotalReceived != 150 {
		t.Fatalf("totals = %d/%d, want 40/150", s.TotalSent, s.TotalReceived)
	}
	if math.Abs(s.AvgSent-10) > 1e-12 || math.Abs(s.AvgReceived-37.5) > 1e-12 {
		t.Fatalf("avg = %v/%v, want 10/37.5", s.AvgSent, s.AvgReceived)
	}
}

func TestSummarizeFiltered(t *testing.T) {
	m := NewMeter(4)
	for i := 0; i < 4; i++ {
		m.AddSent(i, int64(i*10))
	}
	s := m.Summarize(func(i int) bool { return i%2 == 0 }) // tags 0, 2
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.MaxSent != 20 || s.TotalSent != 20 {
		t.Fatalf("filtered MaxSent/Total = %d/%d, want 20/20", s.MaxSent, s.TotalSent)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	m := NewMeter(2)
	s := m.Summarize(func(int) bool { return false })
	if s.Count != 0 || s.AvgSent != 0 || s.AvgReceived != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewMeter(2), NewMeter(2)
	a.AddSent(0, 1)
	b.AddSent(0, 2)
	b.AddReceived(1, 9)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Sent(0) != 3 || a.Received(1) != 9 {
		t.Fatalf("merge result wrong: sent=%d recv=%d", a.Sent(0), a.Received(1))
	}
	// b unchanged.
	if b.Sent(0) != 2 {
		t.Fatal("Merge mutated the argument")
	}
}

func TestMergeSizeMismatch(t *testing.T) {
	err := NewMeter(2).Merge(NewMeter(3))
	if err == nil {
		t.Fatal("size mismatch did not return an error")
	}
	if !strings.Contains(err.Error(), "3") || !strings.Contains(err.Error(), "2") {
		t.Fatalf("error %q does not name both sizes", err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.ShortSlots = 100
	c.LongSlots = 5
	if c.Total() != 105 {
		t.Fatalf("Total = %d, want 105", c.Total())
	}
	c.Add(Clock{ShortSlots: 1, LongSlots: 2})
	if c.ShortSlots != 101 || c.LongSlots != 7 {
		t.Fatalf("Add result wrong: %+v", c)
	}
}

func TestIDBits(t *testing.T) {
	if IDBits != 96 {
		t.Fatalf("IDBits = %d, want 96 (EPC Gen2)", IDBits)
	}
}

func TestSummarizeByTier(t *testing.T) {
	m := NewMeter(4)
	m.AddSent(0, 10) // tier 1
	m.AddSent(1, 20) // tier 1
	m.AddSent(2, 40) // tier 2
	// tag 3 stays at tier 0 (unreachable)
	tiers := []int16{1, 1, 2, 0}
	got := m.SummarizeByTier(tiers, 2)
	if len(got) != 3 {
		t.Fatalf("summaries = %d, want 3", len(got))
	}
	if got[0].Count != 1 || got[0].TotalSent != 0 {
		t.Fatalf("tier 0 summary wrong: %+v", got[0])
	}
	if got[1].Count != 2 || got[1].TotalSent != 30 || got[1].MaxSent != 20 {
		t.Fatalf("tier 1 summary wrong: %+v", got[1])
	}
	if got[2].Count != 1 || got[2].TotalSent != 40 {
		t.Fatalf("tier 2 summary wrong: %+v", got[2])
	}
}

func TestSummarizeByTierSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewMeter(2).SummarizeByTier([]int16{1}, 1)
}
