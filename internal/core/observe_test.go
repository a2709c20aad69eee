package core

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"netags/internal/obs"
)

// TestTracerObserveOnly is the golden test of the observability contract:
// attaching any tracer — in-memory or JSONL — leaves every reported number
// byte-identical to the untraced run.
func TestTracerObserveOnly(t *testing.T) {
	nw := diskNetwork(t, 400, 6, 7)
	base := Config{FrameSize: 128, Seed: 11}

	bare, err := RunSession(nw, base)
	if err != nil {
		t.Fatal(err)
	}

	mem := obs.NewMemory()
	memCfg := base
	memCfg.Tracer = mem
	var buf bytes.Buffer
	jl := obs.NewJSONL(&buf)
	jlCfg := base
	jlCfg.Tracer = jl

	for name, cfg := range map[string]Config{"memory": memCfg, "jsonl": jlCfg} {
		got, err := RunSession(nw, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Bitmap.Equal(bare.Bitmap) {
			t.Errorf("%s: bitmap differs from untraced run", name)
		}
		if got.Rounds != bare.Rounds || got.Truncated != bare.Truncated {
			t.Errorf("%s: rounds/truncated = %d/%v, want %d/%v",
				name, got.Rounds, got.Truncated, bare.Rounds, bare.Truncated)
		}
		if got.Clock != bare.Clock {
			t.Errorf("%s: clock = %+v, want %+v", name, got.Clock, bare.Clock)
		}
		for i := 0; i < got.Meter.N(); i++ {
			if got.Meter.Sent(i) != bare.Meter.Sent(i) || got.Meter.Received(i) != bare.Meter.Received(i) {
				t.Fatalf("%s: tag %d meter differs", name, i)
			}
		}
		for i := range bare.NewBusyPerRound {
			if got.NewBusyPerRound[i] != bare.NewBusyPerRound[i] {
				t.Errorf("%s: NewBusyPerRound[%d] differs", name, i)
			}
			if got.CheckSlotsPerRound[i] != bare.CheckSlotsPerRound[i] {
				t.Errorf("%s: CheckSlotsPerRound[%d] differs", name, i)
			}
		}
	}

	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) < bare.Rounds+2 {
		t.Fatalf("JSONL trace has %d lines, want at least %d", len(lines), bare.Rounds+2)
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("JSONL line %d is not valid JSON: %s", i+1, line)
		}
	}

	// The event stream itself must agree with the result: one round event
	// per round, and the session_end carries the final busy count.
	kinds := mem.Kinds()
	if kinds[obs.KindRound] != bare.Rounds {
		t.Errorf("traced %d round events, want %d", kinds[obs.KindRound], bare.Rounds)
	}
	if kinds[obs.KindSessionStart] != 1 || kinds[obs.KindSessionEnd] != 1 {
		t.Errorf("session bracket events = %d/%d, want 1/1",
			kinds[obs.KindSessionStart], kinds[obs.KindSessionEnd])
	}
	events := mem.Events()
	last := events[len(events)-1]
	if last.Kind != obs.KindSessionEnd || last.KnownBusy != bare.Bitmap.Count() {
		t.Errorf("session_end known_busy = %d, want %d", last.KnownBusy, bare.Bitmap.Count())
	}
}

// TestResultRoundInvariants pins the per-round diagnostics: under a reliable
// channel every busy slot is reported exactly once, so the per-round waves
// sum to the final bitmap population, and both slices cover every round.
func TestResultRoundInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		r    float64
		seed uint64
	}{
		{"sparse", 200, 4, 3},
		{"dense", 800, 8, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := diskNetwork(t, tc.n, tc.r, tc.seed)
			res, err := RunSession(nw, Config{FrameSize: 256, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NewBusyPerRound) != res.Rounds {
				t.Fatalf("len(NewBusyPerRound) = %d, want Rounds = %d",
					len(res.NewBusyPerRound), res.Rounds)
			}
			if len(res.CheckSlotsPerRound) != res.Rounds {
				t.Fatalf("len(CheckSlotsPerRound) = %d, want Rounds = %d",
					len(res.CheckSlotsPerRound), res.Rounds)
			}
			sum := 0
			for _, w := range res.NewBusyPerRound {
				if w < 0 {
					t.Fatalf("negative wave %d", w)
				}
				sum += w
			}
			if sum != res.Bitmap.Count() {
				t.Fatalf("waves sum to %d, bitmap has %d busy slots", sum, res.Bitmap.Count())
			}
			for i, c := range res.CheckSlotsPerRound {
				if c < 1 {
					t.Fatalf("round %d executed %d checking slots, want >= 1", i+1, c)
				}
			}
		})
	}
}

// TestResultMetrics: the Collector, obs.Metrics' one builder, fed a real
// session's events agrees with that session's Result.
func TestResultMetrics(t *testing.T) {
	nw := diskNetwork(t, 300, 6, 9)
	coll := obs.NewCollector()
	res, err := RunSession(nw, Config{FrameSize: 128, Seed: 2, Tracer: coll})
	if err != nil {
		t.Fatal(err)
	}
	m := coll.Snapshot()
	if m.Sessions != 1 || m.Rounds != int64(res.Rounds) {
		t.Fatalf("metrics sessions/rounds = %d/%d, want 1/%d", m.Sessions, m.Rounds, res.Rounds)
	}
	if m.BusySlots != int64(res.Bitmap.Count()) {
		t.Fatalf("metrics busy slots = %d, want %d", m.BusySlots, res.Bitmap.Count())
	}
	waves := 0
	for _, w := range res.NewBusyPerRound {
		waves += w
	}
	if m.Waves.N != int64(len(res.NewBusyPerRound)) || m.Waves.Sum != int64(waves) {
		t.Fatalf("waves histogram n/sum = %d/%d, want %d/%d",
			m.Waves.N, m.Waves.Sum, len(res.NewBusyPerRound), waves)
	}
	if m.TotalSlots() != res.Clock.Total() {
		t.Fatalf("metrics slots = %d, want %d", m.TotalSlots(), res.Clock.Total())
	}
}

// BenchmarkSessionTracer measures the tracing overhead: the nil-tracer run
// must stay within noise of the pre-observability hot path (the ≤2%
// contract), and the JSONL run bounds the cost of full tracing.
func BenchmarkSessionTracer(b *testing.B) {
	d := diskNetwork(b, 1000, 6, 7)
	for _, bc := range []struct {
		name   string
		tracer obs.Tracer
	}{
		{"nil", nil},
		{"jsonl", obs.NewJSONL(io.Discard)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{FrameSize: 512, Seed: 3, Tracer: bc.tracer}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSession(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
