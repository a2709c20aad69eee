package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestEventAppendJSONOmitsZeros(t *testing.T) {
	ev := Event{Kind: KindRound, Protocol: ProtoCCM, Round: 3, NewBusy: 7}
	got := string(ev.AppendJSON(nil))
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("invalid JSON %q: %v", got, err)
	}
	if m["kind"] != "round" || m["protocol"] != "ccm" {
		t.Errorf("kind/protocol wrong in %v", m)
	}
	if m["round"] != float64(3) || m["new_busy"] != float64(7) {
		t.Errorf("payload wrong in %v", m)
	}
	if _, ok := m["known_busy"]; ok {
		t.Errorf("zero field not omitted in %v", m)
	}
}

func TestEventAppendJSONAllFields(t *testing.T) {
	ev := Event{
		Kind: KindSessionEnd, Protocol: ProtoCCM, Phase: "x", Job: "ab12", Reader: 1,
		Round: 2, FrameSize: 512, Slots: 3, Transmitters: 4, Bits: 5,
		NewBusy: 6, KnownBusy: 7, CheckSlots: 8, Count: 9, Pending: true,
		Tags: 10, Tiers: 11, Rounds: 12, Truncated: true, ShortSlots: 13,
		LongSlots: 14, Seed: 15, Value: 1.5, AvgSentBits: 2.5,
		AvgRecvBits: 3.5, MaxSentBits: 16, MaxRecvBits: 17,
	}
	var m map[string]any
	if err := json.Unmarshal(ev.AppendJSON(nil), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 27 struct fields, all non-zero, all present.
	if len(m) != 27 {
		t.Errorf("got %d JSON fields, want 27: %v", len(m), m)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindSessionStart, KindFrame, KindIndicator, KindCheck,
		KindRound, KindSessionEnd, KindReaderMerge, KindPhase, KindSlotBatch,
		KindJob}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d renders %q", k, s)
		}
		seen[s] = true
	}
	if Kind(0).String() != "unknown" {
		t.Error("zero kind should be unknown")
	}
}

func TestMultiSkipsNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	m1, m2 := NewMemory(), NewMemory()
	single := Multi(nil, m1)
	if single != m1 {
		t.Error("Multi of one should return it directly")
	}
	both := Multi(m1, nil, m2)
	both.Trace(Event{Kind: KindRound})
	if len(m1.Events()) != 1 || len(m2.Events()) != 1 {
		t.Errorf("fan-out failed: %d, %d", len(m1.Events()), len(m2.Events()))
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Trace(Event{Kind: KindRound, Reader: g, Round: i + 1})
			}
		}(g)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("interleaved/corrupt line %q", ln)
		}
	}
}

func TestMemoryTracer(t *testing.T) {
	m := NewMemory()
	m.Trace(Event{Kind: KindSessionStart})
	m.Trace(Event{Kind: KindRound})
	m.Trace(Event{Kind: KindRound})
	if n := len(m.Events()); n != 3 {
		t.Fatalf("len %d", n)
	}
	k := m.Kinds()
	if k[KindRound] != 2 || k[KindSessionStart] != 1 {
		t.Errorf("kinds %v", k)
	}
	evs := m.Events()
	evs[0].Kind = KindPhase // must not alias internal storage
	if m.Events()[0].Kind != KindSessionStart {
		t.Error("Events returned aliased storage")
	}
}

func TestNarratorOutput(t *testing.T) {
	var buf bytes.Buffer
	n := NewNarrator(&buf)
	n.Trace(Event{Kind: KindSessionStart, Protocol: ProtoCCM, FrameSize: 128, Tags: 50, Tiers: 3, Seed: 9})
	n.Trace(Event{Kind: KindRound, Round: 1, Transmitters: 12, Bits: 12, NewBusy: 5, KnownBusy: 5, CheckSlots: 4})
	n.Trace(Event{Kind: KindSessionEnd, Rounds: 1, KnownBusy: 5, ShortSlots: 132, LongSlots: 3})
	n.Trace(Event{Kind: KindPhase, Protocol: ProtoGMLE, Phase: "probe", Round: 1, Count: 60, Value: 0.5})
	out := buf.String()
	for _, want := range []string{"ccm session 1", "round", "end: 1 rounds", "gmle/probe #1"} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
}
