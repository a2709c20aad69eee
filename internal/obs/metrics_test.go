package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 30} {
		h.Observe(v)
	}
	if h.N != 8 || h.Max != 1<<30 {
		t.Fatalf("N=%d Max=%d", h.N, h.Max)
	}
	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..7 → bucket 3;
	// 8 → bucket 4; 1<<30 clamps into the last bucket.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 2, 4: 1, histBuckets - 1: 1}
	for b, c := range h.Counts {
		if c != want[b] {
			t.Errorf("bucket %d: got %d want %d", b, c, want[b])
		}
	}
	h.Observe(-5) // clamps to zero
	if h.Counts[0] != 2 {
		t.Errorf("negative observation not clamped: %v", h.Counts[0])
	}
}

func TestHistString(t *testing.T) {
	var a Hist
	a.Observe(1)
	a.Observe(10)
	a.Observe(100)
	if s := a.String(); !strings.Contains(s, "[1,2):1") || !strings.Contains(s, "[64,128):1") {
		t.Errorf("String() = %q", s)
	}
	var empty Hist
	if empty.String() != "(empty)" || empty.Mean() != 0 {
		t.Error("empty hist rendering")
	}
}

func TestMetricsJSONAndText(t *testing.T) {
	var m Metrics
	m.Sessions = 1
	m.Rounds = 3
	m.ShortSlots, m.LongSlots = 50, 5
	m.Waves.Observe(4)
	m.Waves.Observe(2)
	m.CheckSlots.Observe(6)
	m.SentBits.Add(12)
	m.RecvBits.Add(120)
	m.SentHist.Observe(12)
	m.RecvHist.Observe(120)

	data, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid metrics JSON %s: %v", data, err)
	}
	if decoded["sessions"] != float64(1) || decoded["total_slots"] != float64(55) {
		t.Errorf("counters wrong: %v", decoded)
	}
	waves, ok := decoded["waves"].(map[string]any)
	if !ok || waves["n"] != float64(2) || waves["mean"] != float64(3) {
		t.Errorf("waves wrong: %v", decoded["waves"])
	}
	sent, ok := decoded["sent_bits"].(map[string]any)
	if !ok || sent["mean"] != float64(12) {
		t.Errorf("sent sample wrong: %v", decoded["sent_bits"])
	}

	text := m.String()
	for _, want := range []string{"1 sessions", "3 rounds", "55 slots", "bits sent"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestCollectorReducesEvents(t *testing.T) {
	c := NewCollector()
	c.Trace(Event{Kind: KindSessionStart}) // ignored
	c.Trace(Event{Kind: KindFrame, NewBusy: 5})
	c.Trace(Event{Kind: KindFrame, NewBusy: 3})
	c.Trace(Event{Kind: KindCheck, Slots: 4})
	c.Trace(Event{Kind: KindSessionEnd, Rounds: 2, KnownBusy: 8,
		ShortSlots: 260, LongSlots: 12, Truncated: true,
		AvgSentBits: 1.5, AvgRecvBits: 90, MaxSentBits: 3, MaxRecvBits: 200})
	m := c.Snapshot()
	if m.Sessions != 1 || m.Rounds != 2 || m.BusySlots != 8 || m.TruncatedSessions != 1 {
		t.Fatalf("counters %+v", m)
	}
	if m.Waves.N != 2 || m.Waves.Sum != 8 || m.CheckSlots.Sum != 4 {
		t.Fatalf("histograms %+v %+v", m.Waves, m.CheckSlots)
	}
	if m.SentBits.Mean() != 1.5 || m.SentHist.Max != 3 {
		t.Fatalf("bit stats %+v", m.SentBits)
	}
}
