package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSeedDerivationPinned pins the exact per-trial seeds produced for
// (Seed=1, r=6, trial=0..2). Seeds are position-derived — a pure function
// of (sweep seed, point, trial) — so any refactor that changes these values
// silently reshuffles every reported deployment. If this test fails, the
// derivation changed: that is a results-breaking change and must be called
// out, not absorbed.
func TestSeedDerivationPinned(t *testing.T) {
	want := []TrialSeeds{
		{0x18c6fcbb477e6b6b, 0xa62277c5745796f6, 0x8e030d5c81174ccf},
		{0x4b959c93ff02aa60, 0x5c169cafcc26b512, 0x75cba5d6d0bfa735},
		{0x644b8d2f45ae32ab, 0x79361ce2ed89dad7, 0x64816b4678e78950},
	}
	for trial, w := range want {
		got := SeedsFor(1, FloatKey(6), trial)
		if got != w {
			t.Errorf("SeedsFor(1, r=6, trial=%d) = %+v, want %+v", trial, got, w)
		}
	}
	// The streams must be pairwise distinct: Deploy, Proto, and Aux of any
	// trial, and seeds across trials and points.
	seen := map[uint64]string{}
	for _, r := range []float64{2, 6, 10} {
		for trial := 0; trial < 5; trial++ {
			s := SeedsFor(1, FloatKey(r), trial)
			for name, v := range map[string]uint64{"deploy": s.Deploy, "proto": s.Proto, "aux": s.Aux} {
				at := fmt.Sprintf("r=%g trial=%d %s", r, trial, name)
				if prev, dup := seen[v]; dup {
					t.Fatalf("seed collision: %s and %s both got %#x", prev, at, v)
				}
				seen[v] = at
			}
		}
	}
}

// TestParallelMatchesSequential is the determinism contract of the worker
// pool: Workers: 4 must produce the same Results struct as Workers: 1,
// byte for byte. Run under -race it doubles as the harness's data-race
// check (go test -race ./internal/experiment/...).
func TestParallelMatchesSequential(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 1
	seq, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Fatalf("Workers:4 diverged from Workers:1\nseq: %+v\npar: %+v", seq.Rows, par.Rows)
	}
	// The rendered artifacts must be identical too — byte for byte.
	if seq.CSV() != par.CSV() {
		t.Fatal("CSV output differs between worker counts")
	}
	// Workers: 0 (all cores) joins the same equivalence class.
	cfg.Workers = 0
	auto, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, auto.Rows) {
		t.Fatal("Workers:0 diverged from Workers:1")
	}
}

// TestDensitySweepParallelMatchesSequential extends the contract to the
// population sweep.
func TestDensitySweepParallelMatchesSequential(t *testing.T) {
	parallelMatchesSequential(t, Spec{Sweep: SweepDensity, Radius: 30, Trials: 2, Seed: 3, NValues: []int{400, 900}, R: 6})
}

// TestLossSweepParallelMatchesSequential extends the contract to the
// unreliable-channel sweep (which consumes the extra Aux seed stream).
func TestLossSweepParallelMatchesSequential(t *testing.T) {
	parallelMatchesSequential(t, Spec{Sweep: SweepLoss, N: 500, Radius: 30, Trials: 2, Seed: 1, R: 6, LossValues: []float64{0, 0.5}})
}

func parallelMatchesSequential(t *testing.T, s Spec) {
	t.Helper()
	seq, err := Run(context.Background(), s, Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), s, Exec{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s sweep diverged between worker counts", s.Sweep)
	}
}

// TestStructuredProgress checks the Progress events RunContext emits: one
// per (r, trial) work item, with the sweep coordinates and tier count
// filled in, and the legacy line format preserved by String.
func TestStructuredProgress(t *testing.T) {
	cfg := tinyConfig()
	cfg.RValues = []float64{6}
	cfg.Trials = 2
	cfg.Workers = 1
	var events []Progress
	if _, err := RunContext(context.Background(), cfg, func(p Progress) { events = append(events, p) }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	for i, ev := range events {
		if ev.Sweep != "range" || ev.R != 6 || ev.Trial != i || ev.Trials != 2 {
			t.Errorf("event %d has wrong coordinates: %+v", i, ev)
		}
		if ev.Tiers <= 0 {
			t.Errorf("event %d missing tier count: %+v", i, ev)
		}
		if len(ev.Protocols) != 4 {
			t.Errorf("event %d protocols = %v", i, ev.Protocols)
		}
		if ev.Completed != i+1 || ev.Total != 2 {
			t.Errorf("event %d sweep counts = %d/%d, want %d/2", i, ev.Completed, ev.Total, i+1)
		}
		want := fmt.Sprintf("r=6 trial %d/2 done (K=%d) [%d/2", i+1, ev.Tiers, i+1)
		if !strings.HasPrefix(ev.String(), want) {
			t.Errorf("event %d renders %q, want prefix %q", i, ev.String(), want)
		}
	}
	if last := events[len(events)-1]; !strings.HasSuffix(last.String(), "[2/2, done]") {
		t.Errorf("final event renders %q, want the done marker", last.String())
	}
	// Density and loss events render their own coordinate.
	if s := (Progress{Sweep: "density", N: 500, Trial: 0, Trials: 3, Tiers: 2}).String(); !strings.HasPrefix(s, "n=500 ") {
		t.Errorf("density event renders %q", s)
	}
	if s := (Progress{Sweep: "loss", Loss: 0.5, Trial: 0, Trials: 3, Tiers: 2}).String(); !strings.HasPrefix(s, "loss=0.5 ") {
		t.Errorf("loss event renders %q", s)
	}
}

// TestRunContextCancellation: a canceled context stops the sweep and
// surfaces the context error, for both the sequential and pooled paths.
func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := tinyConfig()
		cfg.Workers = workers
		if _, err := RunContext(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestParallelForError: the first body error cancels the remaining work
// and is the one returned. Items after 3 wait for the pool's context to be
// cancelled, so no schedule lets the other workers run past them: each
// worker starts at most one item after 3, and none once the error is in.
func TestParallelForError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ParallelFor(context.Background(), workers, 1000, func(ctx context.Context, i int) error {
			ran.Add(1)
			switch {
			case i == 3:
				return boom
			case i > 3:
				<-ctx.Done()
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := ran.Load(); n > int64(3+workers) {
			t.Errorf("workers=%d: error did not stop the pool (ran %d items)", workers, n)
		}
	}
}

// TestParallelForCoverage: every index runs exactly once, whatever the
// worker count.
func TestParallelForCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 257
		counts := make([]int32, n)
		err := ParallelFor(context.Background(), workers, n, func(ctx context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunSweepObserverSerialized: observe callbacks never overlap, even
// with a heavily contended pool.
func TestRunSweepObserverSerialized(t *testing.T) {
	var (
		inFlight atomic.Int32
		bad      atomic.Int32
		events   int
		mu       sync.Mutex
	)
	_, err := RunSweep(context.Background(), Sweep[int, int]{
		Base:   BaseConfig{Radius: 1, Trials: 8, Workers: 8},
		Points: []int{1, 2, 3, 4},
		Key:    func(p int) uint64 { return IntKey(p) },
		Run: func(ctx context.Context, p, trial int, seeds TrialSeeds) (int, error) {
			return p * trial, nil
		},
		Event: func(p, trial, result int, elapsed time.Duration) Progress {
			return Progress{Trial: trial}
		},
	}, func(p Progress) {
		if inFlight.Add(1) != 1 {
			bad.Add(1)
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		mu.Lock()
		events++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Error("observer callbacks overlapped")
	}
	mu.Lock()
	defer mu.Unlock()
	if events != 32 {
		t.Errorf("events = %d, want 32", events)
	}
}

// TestRunSweepResumedTotals: with points skipped (the resume path), the
// runner's Total counts only the items that run. It is the one
// denominator /progress and a served job's status report, so every event
// carries it and the last one reads Completed == Total.
func TestRunSweepResumedTotals(t *testing.T) {
	const trials = 3
	skip := []bool{true, false, true, false, false}
	var events []Progress
	_, err := RunSweep(context.Background(), Sweep[int, int]{
		Base:   BaseConfig{Radius: 1, Trials: trials, Workers: 2},
		Points: []int{1, 2, 3, 4, 5},
		Key:    IntKey,
		Skip:   skip,
		Run:    func(ctx context.Context, p, trial int, seeds TrialSeeds) (int, error) { return p, nil },
		Event: func(p, trial, result int, elapsed time.Duration) Progress {
			return Progress{N: p, Trial: trial, Trials: trials}
		},
	}, func(p Progress) { events = append(events, p) })
	if err != nil {
		t.Fatal(err)
	}
	const want = 3 * trials // three unskipped points
	if len(events) != want {
		t.Fatalf("%d events, want %d", len(events), want)
	}
	for i, ev := range events {
		if ev.Total != want || ev.Completed != i+1 || skip[ev.N-1] {
			t.Errorf("event %d = point %d, %d/%d; want an unskipped point at %d/%d",
				i, ev.N, ev.Completed, ev.Total, i+1, want)
		}
	}
	if last := events[len(events)-1]; last.Completed != last.Total {
		t.Errorf("last event %d/%d, want Completed == Total", last.Completed, last.Total)
	}
}
