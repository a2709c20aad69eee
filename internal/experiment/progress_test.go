package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// The live-progress view is TrackLatest, which holds the latest
// runner-stamped Progress event; per-point timing is SweepPoint.Elapsed.
// These tests pin both, plus the event's JSON form.

// decodeJSON unmarshals a /progress body into a generic map.
func decodeJSON(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("invalid JSON %s: %v", b, err)
	}
	return m
}

// TestTrackerEmpty: before the first item lands, the view is an empty
// object.
func TestTrackerEmpty(t *testing.T) {
	_, latest := TrackLatest(nil)
	b, err := latest()
	if err != nil || string(b) != "{}" {
		t.Fatalf("empty view = %s, %v; want {}", b, err)
	}
}

// TestTrackerCounts: the served counts are the runner's. Mid-sweep the
// view reads 3/4 with an ETA; after the last item it reads 4/4 with none.
func TestTrackerCounts(t *testing.T) {
	var mid []byte
	var latest func() ([]byte, error)
	var observe func(Progress)
	observe, latest = TrackLatest(func(p Progress) {
		if p.Completed == 3 {
			mid, _ = latest()
		}
	})
	_, err := RunSweep(context.Background(), Sweep[int, int]{
		Base:   BaseConfig{Radius: 1, Trials: 4, Workers: 1},
		Points: []int{6},
		Key:    IntKey,
		Run:    func(ctx context.Context, p, trial int, seeds TrialSeeds) (int, error) { return p, nil },
		Event: func(p, trial, result int, elapsed time.Duration) Progress {
			return Progress{Sweep: "range", R: float64(p), Trial: trial, Trials: 4, Elapsed: elapsed}
		},
	}, observe)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, mid)
	if m["completed"] != float64(3) || m["total"] != float64(4) {
		t.Errorf("mid-sweep view = %s, want 3/4", mid)
	}
	if eta, _ := m["eta_ms"].(float64); eta <= 0 {
		t.Errorf("mid-sweep eta_ms = %v, want > 0", m["eta_ms"])
	}
	b, _ := latest()
	m = decodeJSON(t, b)
	if m["completed"] != float64(4) || m["total"] != float64(4) || m["trial"] != float64(3) {
		t.Errorf("final view = %s, want 4/4 at trial 3", b)
	}
	if _, ok := m["eta_ms"]; ok {
		t.Errorf("finished view still carries an ETA: %s", b)
	}
}

// TestTrackerLearnsTotalFromEvents: runner-stamped events carry the grid
// size, so the view needs no declared total.
func TestTrackerLearnsTotalFromEvents(t *testing.T) {
	observe, latest := TrackLatest(nil)
	observe(Progress{Sweep: "range", R: 6, Completed: 1, Total: 18})
	b, _ := latest()
	if m := decodeJSON(t, b); m["total"] != float64(18) || m["completed"] != float64(1) {
		t.Fatalf("view = %s, want 1/18", b)
	}
}

// TestTrackerProgressJSON: the view is the latest event as MarshalJSON
// renders it, byte for byte.
func TestTrackerProgressJSON(t *testing.T) {
	observe, latest := TrackLatest(nil)
	observe(Progress{Sweep: "loss", Loss: 0.2, Trials: 2, Elapsed: time.Millisecond, Completed: 1, Total: 4})
	last := Progress{Sweep: "loss", Loss: 0.5, Trial: 1, Trials: 2, Elapsed: time.Millisecond,
		Completed: 2, Total: 4, SweepElapsed: 3 * time.Millisecond}
	observe(last)
	b, err := latest()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(last)
	if !bytes.Equal(b, want) {
		t.Fatalf("view = %s, want %s", b, want)
	}
	m := decodeJSON(t, b)
	for _, key := range []string{"sweep", "loss", "completed", "total", "elapsed_ms", "sweep_elapsed_ms", "eta_ms"} {
		if _, ok := m[key]; !ok {
			t.Errorf("view missing %q: %s", key, b)
		}
	}
}

// TestTrackerLiveSweep wires the view into a real RunContext call the way
// the CLIs do and checks the final event matches the grid.
func TestTrackerLiveSweep(t *testing.T) {
	cfg := tinyConfig()
	observe, latest := TrackLatest(nil)
	if _, err := RunContext(context.Background(), cfg, observe); err != nil {
		t.Fatal(err)
	}
	b, err := latest()
	if err != nil {
		t.Fatal(err)
	}
	var p Progress
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	want := len(cfg.RValues) * cfg.Trials
	if p.Completed != want || p.Total != want || p.SweepElapsed <= 0 || p.ETA() != 0 {
		t.Fatalf("view after sweep = %s, want %d/%d done", b, want, want)
	}
}

// TestTrackerWrapForwards: every event still reaches the inner observer,
// and a nil one is accepted.
func TestTrackerWrapForwards(t *testing.T) {
	var got []Progress
	observe, latest := TrackLatest(func(p Progress) { got = append(got, p) })
	observe(Progress{Sweep: "range", R: 2})
	if len(got) != 1 || got[0].R != 2 {
		t.Fatalf("forwarded events = %+v", got)
	}
	if b, _ := latest(); decodeJSON(t, b)["r"] != float64(2) {
		t.Fatalf("view missed the event: %s", b)
	}
	observe, _ = TrackLatest(nil)
	observe(Progress{Sweep: "range", R: 3})
}

// TestTrackerConcurrent: observing and reading the view race-free (run
// under -race), and the view always holds one whole event.
func TestTrackerConcurrent(t *testing.T) {
	observe, latest := TrackLatest(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				observe(Progress{Sweep: "range", R: 6, Completed: i, Total: 100})
				b, err := latest()
				if err != nil {
					t.Error(err)
					return
				}
				var p Progress
				if err := json.Unmarshal(b, &p); err != nil || p.Total != 100 || p.Completed < 1 {
					t.Errorf("torn view %s: %v", b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTrackerETAExcludesPreRunDelay: the view keeps no clock of its own,
// so time that passes before a sweep starts (queue wait, checkpoint load,
// an earlier process having done half the work) cannot dilute the ETA. The
// served ETA is the event's own, from SweepElapsed, which the runner
// measures from the sweep's start.
func TestTrackerETAExcludesPreRunDelay(t *testing.T) {
	observe, latest := TrackLatest(nil)
	observe(Progress{Sweep: "range", R: 6, Trial: 1, Trials: 4, Completed: 2, Total: 4,
		SweepElapsed: 10 * time.Millisecond})
	b, _ := latest()
	if m := decodeJSON(t, b); m["eta_ms"] != float64(10) {
		t.Fatalf("eta_ms = %v, want 10 (two items in 10ms, two left)", m["eta_ms"])
	}
}

// TestProgressETA pins the extrapolation arithmetic.
func TestProgressETA(t *testing.T) {
	p := Progress{Completed: 2, Total: 6, SweepElapsed: 10 * time.Second}
	if got := p.ETA(); got != 20*time.Second {
		t.Fatalf("ETA = %v, want 20s", got)
	}
	for _, zero := range []Progress{
		{},
		{Total: 6},
		{Completed: 6, Total: 6, SweepElapsed: time.Second},
	} {
		if zero.ETA() != 0 {
			t.Errorf("ETA(%+v) = %v, want 0", zero, zero.ETA())
		}
	}
}

// TestProgressJSONSweepFields: the stamped sweep-level fields reach the
// JSONL progress encoding.
func TestProgressJSONSweepFields(t *testing.T) {
	p := Progress{Sweep: "range", R: 6, Completed: 2, Total: 6,
		SweepElapsed: 10 * time.Second}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, b)
	if m["completed"] != float64(2) || m["total"] != float64(6) {
		t.Errorf("counts missing: %s", b)
	}
	if m["eta_ms"] != float64(20000) {
		t.Errorf("eta_ms = %v, want 20000", m["eta_ms"])
	}
	if s := p.String(); !strings.Contains(s, "[2/6, eta 20s]") {
		t.Errorf("String() = %q", s)
	}
}

// TestProgressJSONRoundTrip: UnmarshalJSON inverts MarshalJSON. Durations
// that are not whole milliseconds come back to the nanosecond, the derived
// eta_ms is recomputed rather than read, and a second marshal is
// byte-identical to the first.
func TestProgressJSONRoundTrip(t *testing.T) {
	for _, p := range []Progress{
		{},
		{Sweep: "loss", R: 6, Loss: 0, Trials: 3, Protocols: []Protocol{TRPCCM}, Tiers: 4},
		{Sweep: "range", R: 6, Trial: 1, Trials: 2, Protocols: []Protocol{SICP, GMLECCM, TRPCCM},
			Tiers: 7, Elapsed: 1234567, Completed: 5, Total: 18, SweepElapsed: 3*time.Hour + 987654321},
		{Sweep: "density", N: 5000, Trials: 2, Elapsed: 1, Completed: 2, Total: 2, SweepElapsed: 3},
	} {
		first, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Progress
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", first, err)
		}
		if back.Elapsed != p.Elapsed || back.SweepElapsed != p.SweepElapsed || back.ETA() != p.ETA() {
			t.Errorf("%s: durations came back as %v, %v (eta %v)", first, back.Elapsed, back.SweepElapsed, back.ETA())
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("round trip changed the bytes:\n%s\n%s", first, second)
		}
	}
	if err := json.Unmarshal([]byte(`{"completed":"x"}`), new(Progress)); err == nil {
		t.Error("malformed event accepted")
	}
}

// pointTimes runs a synthetic sweep and returns each point's SweepPoint
// elapsed time, the per-item elapsed times its events carried, summed by
// point, and how often PointDone saw each point.
func pointTimes(t *testing.T, points, trials, workers int) (done, items map[int]time.Duration, calls map[int]int) {
	t.Helper()
	done, items, calls = map[int]time.Duration{}, map[int]time.Duration{}, map[int]int{}
	axis := make([]int, points)
	for i := range axis {
		axis[i] = i + 1
	}
	_, err := RunSweep(context.Background(), Sweep[int, int]{
		Base:   BaseConfig{Radius: 1, Trials: trials, Workers: workers},
		Points: axis,
		Key:    IntKey,
		Run:    func(ctx context.Context, p, trial int, seeds TrialSeeds) (int, error) { return p * trial, nil },
		Event: func(p, trial, result int, elapsed time.Duration) Progress {
			return Progress{N: p, Trial: trial, Trials: trials, Elapsed: elapsed}
		},
		PointDone: func(sp SweepPoint[int, int]) {
			done[sp.Point] += sp.Elapsed
			calls[sp.Point]++
		},
	}, func(p Progress) { items[p.N] += p.Elapsed })
	if err != nil {
		t.Fatal(err)
	}
	return done, items, calls
}

// TestTimingAggregatesPerPoint: a point's Elapsed, which ccmtables' timing
// table and a served job's point records report, is the sum of its work
// items' times.
func TestTimingAggregatesPerPoint(t *testing.T) {
	done, items, calls := pointTimes(t, 2, 3, 1)
	for p := 1; p <= 2; p++ {
		if calls[p] != 1 || done[p] != items[p] {
			t.Errorf("point %d: %d PointDone calls, elapsed %v, items summed to %v",
				p, calls[p], done[p], items[p])
		}
	}
}

// TestTimingConcurrentObserve: under a contended pool every point still
// reports once, with every item's time in it.
func TestTimingConcurrentObserve(t *testing.T) {
	done, items, calls := pointTimes(t, 4, 8, 8)
	for p := 1; p <= 4; p++ {
		if calls[p] != 1 || done[p] != items[p] {
			t.Errorf("point %d: %d PointDone calls, elapsed %v, items summed to %v",
				p, calls[p], done[p], items[p])
		}
	}
}

// TestTimingLabelsPerSweep: each kind labels its points by its own axis,
// the labels of the timing table and the point records.
func TestTimingLabelsPerSweep(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{Sweep: SweepRange, RValues: []float64{2, 6}}, "r=6"},
		{Spec{Sweep: SweepDensity, NValues: []int{300, 5000}}, "n=5000"},
		{Spec{Sweep: SweepLoss, LossValues: []float64{0, 0.2}}, "loss=0.2"},
	} {
		if got := c.spec.PointLabel(1); got != c.want {
			t.Errorf("%s point 1 = %q, want %q", c.spec.Sweep, got, c.want)
		}
		if got := c.spec.PointLabel(2); got != "point=2" {
			t.Errorf("%s off-axis point = %q, want point=2", c.spec.Sweep, got)
		}
	}
}
