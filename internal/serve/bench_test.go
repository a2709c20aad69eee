package serve

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"testing"

	"netags/internal/obs"
)

// BenchmarkServeSpecKey: the cost of content-addressing one submission
// (normalize + canonical JSON + SHA-256). This sits on every POST /jobs,
// so it must stay trivially cheap next to an actual sweep.
func BenchmarkServeSpecKey(b *testing.B) {
	spec := JobSpec{N: 10000, Trials: 5, RValues: []float64{2, 4, 6, 8, 10},
		Protocols: []string{"TRP-CCM", "SICP", "GMLE-CCM"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Key(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSubmitHit: the full Submit fast path on a warm cache —
// key derivation, the job-table lookup, the LRU refresh, and the
// cached-result return. This is the latency a
// duplicate submission pays instead of a sweep.
func BenchmarkServeSubmitHit(b *testing.B) {
	m := NewManager(Config{Workers: 1, run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
		emitStubPoints(s, h)
		return nil
	}})
	defer m.Shutdown(context.Background())
	spec := JobSpec{N: 10000, Trials: 5, RValues: []float64{2, 4, 6, 8, 10}}
	st, _, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for {
		cur, _ := m.Job(st.ID)
		if cur.State.Terminal() {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, outcome, err := m.Submit(spec, SubmitOptions{})
		if err != nil || outcome != OutcomeCached {
			b.Fatalf("submit = %v, %v", outcome, err)
		}
	}
}

// BenchmarkServePointDoneDisabled is the per-point execution hot path with
// every observability sink off: tracing disabled, no tracer, logger at the
// default (discard) level. The alloc count is the contract — the regression
// gate pins it at zero, so lifecycle tracing and structured logging cannot
// tax sweeps that did not opt in.
func BenchmarkServePointDoneDisabled(b *testing.B) {
	m := NewManager(Config{Workers: 1, TraceEventsPerJob: -1,
		run: func(ctx context.Context, s JobSpec, w int, h runHooks) error { return nil }})
	defer m.Shutdown(context.Background())
	j := &Job{ID: "bench-point-disabled", points: 1 << 30}
	row := json.RawMessage(`{"r":2,"mean_sent":42.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.pointCompleted(j, PointRecord{Index: i, Label: "r=2", Row: row, ElapsedMS: 1.25})
	}
}

// BenchmarkServePointDoneEnabled is the same path with everything on:
// the job's timeline, ring mirroring, and a debug-level JSON logger. Tracked so
// the cost of full observability stays visible and bounded, but not pinned
// to zero — this path is opt-in.
func BenchmarkServePointDoneEnabled(b *testing.B) {
	ring := obs.NewRing(1024)
	m := NewManager(Config{Workers: 1, Tracer: ring,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
		run:    func(ctx context.Context, s JobSpec, w int, h runHooks) error { return nil }})
	defer m.Shutdown(context.Background())
	j := &Job{ID: "bench-point-enabled", points: 1 << 30, trace: newJobTrace(m.traceHead, m.traceTail)}
	row := json.RawMessage(`{"r":2,"mean_sent":42.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.pointCompleted(j, PointRecord{Index: i, Label: "r=2", Row: row, ElapsedMS: 1.25})
	}
}
