package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netags/internal/experiment"
)

// TestResumeAfterDrainByteIdentical, for every sweep kind: a real
// sweep is drained mid-flight at ~50% of its points, the process "restarts"
// (a new Manager on the same checkpoint dir), the spec is resubmitted, and
// the resumed job (a) recomputes none of the completed points, (b) reports
// them as ResumedPoints, and (c) produces a payload byte-identical to an
// uninterrupted run; its progress total counts only the recomputed points.
func TestResumeAfterDrainByteIdentical(t *testing.T) {
	for _, spec := range []JobSpec{
		{N: 130, Trials: 2, RValues: []float64{3, 4, 5, 6}, Seed: 5},
		{Sweep: experiment.SweepDensity, Trials: 2, R: 6, NValues: []int{60, 90, 120, 150}, Seed: 5},
		{Sweep: experiment.SweepLoss, N: 130, Trials: 2, R: 6, LossValues: []float64{0, 0.2, 0.4, 0.6}, Seed: 5},
	} {
		t.Run(spec.Normalized().Sweep, func(t *testing.T) { resumeAfterDrain(t, spec) })
	}
}

func resumeAfterDrain(t *testing.T, spec JobSpec) {
	points := spec.PointCount()
	killAt := points / 2

	direct, err := runSpec(context.Background(), spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// Phase 1: run for real, stall after killAt points are checkpointed,
	// then force-drain. JobWorkers 1 serializes the sweep so exactly the
	// first killAt points land.
	half := make(chan struct{})
	var once sync.Once
	var completed atomic.Int64
	m1 := NewManager(Config{Workers: 1, JobWorkers: 1, CheckpointDir: dir,
		run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
			inner := h
			inner.pointDone = func(rec PointRecord) {
				h.pointDone(rec)
				if completed.Add(1) == int64(killAt) {
					once.Do(func() { close(half) })
					<-ctx.Done() // stall the sweep until the drain cancels it
				}
			}
			return runSpecHooked(ctx, s, w, inner)
		}})
	st1, _, err := m1.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-half:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never reached the halfway mark")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	m1.Shutdown(drainCtx) // deadline forces cancellation mid-sweep
	if final, _ := m1.Job(st1.ID); final.State != StateCanceled {
		t.Fatalf("drained job state = %s, want canceled", final.State)
	}

	// Phase 2: fresh manager, same checkpoint dir — the restart. Record
	// which point indices actually get recomputed.
	var recomputedMu sync.Mutex
	var recomputed []int
	m2 := NewManager(Config{Workers: 1, JobWorkers: 1, CheckpointDir: dir,
		run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
			inner := h
			inner.pointDone = func(rec PointRecord) {
				recomputedMu.Lock()
				recomputed = append(recomputed, rec.Index)
				recomputedMu.Unlock()
				h.pointDone(rec)
			}
			return runSpecHooked(ctx, s, w, inner)
		}})
	defer m2.Shutdown(context.Background())
	st2, outcome, err := m2.Submit(spec, SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("resubmit = %v, %v, %v", st2, outcome, err)
	}
	if st2.ResumedPoints != killAt {
		t.Errorf("ResumedPoints = %d, want %d", st2.ResumedPoints, killAt)
	}
	final := waitTerminal(t, m2, st2.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %+v", final)
	}
	// The status's progress is the runner's last event, so its total
	// counts only the points still to run.
	if want := (points - killAt) * spec.Trials; final.Progress == nil ||
		final.Progress.Total != want || final.Progress.Completed != want {
		t.Errorf("resumed job's progress = %+v, want %d/%d", final.Progress, want, want)
	}

	recomputedMu.Lock()
	defer recomputedMu.Unlock()
	if len(recomputed) != points-killAt {
		t.Errorf("recomputed %d points %v, want only the %d unfinished ones",
			len(recomputed), recomputed, points-killAt)
	}
	for _, idx := range recomputed {
		if idx < killAt {
			t.Errorf("completed point %d was recomputed", idx)
		}
	}

	payload, _, _ := m2.Result(st2.ID)
	if !bytes.Equal(payload, direct) {
		t.Errorf("resumed payload differs from uninterrupted run:\n%s\nvs\n%s", payload, direct)
	}
}

// TestResumeAfterCancelInProcess: cancel a running job, resubmit in the
// same manager (memory checkpoints, no dir), and the resumption skips the
// checkpointed points.
func TestResumeAfterCancelInProcess(t *testing.T) {
	spec := testSpec(0)
	gate := make(chan struct{})
	var runs atomic.Int64
	m := NewManager(Config{Workers: 1, run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
		n := runs.Add(1)
		emitStubPoints(s, h) // checkpoint everything, then...
		if n == 1 {
			select { // ...block until canceled on the first attempt
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}})
	defer func() { close(gate); m.Shutdown(context.Background()) }()

	st, _, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	m.Cancel(st.ID)
	if final := waitTerminal(t, m, st.ID); final.State != StateCanceled {
		t.Fatalf("canceled job = %+v", final)
	}

	st2, _, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ResumedPoints != spec.PointCount() {
		t.Errorf("ResumedPoints = %d, want all %d", st2.ResumedPoints, spec.PointCount())
	}
	if final := waitTerminal(t, m, st2.ID); final.State != StateDone {
		t.Fatalf("resumed job = %+v", final)
	}
	if payload, _, _ := m.Result(st2.ID); payload == nil {
		t.Error("resumed job has no payload")
	}
}

// TestDuplicateSubmitRacesCheckpointedJob: while a resumed job is running,
// a duplicate submission must join it (singleflight), not fork a second
// execution over the same checkpoint.
func TestDuplicateSubmitRacesCheckpointedJob(t *testing.T) {
	spec := testSpec(0)
	gate := make(chan struct{})
	var runs atomic.Int64
	m := NewManager(Config{Workers: 1, run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
		runs.Add(1)
		emitStubPoints(s, h)
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}})
	defer m.Shutdown(context.Background())

	// Seed a checkpoint: cancel the first attempt mid-run.
	st, _, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	m.Cancel(st.ID)
	waitTerminal(t, m, st.ID)

	// Resubmit (resumes from the checkpoint) and race a flood of duplicates
	// against it while it runs.
	st2, _, err := m.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st2.ID)
	const dups = 8
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dup, outcome, err := m.Submit(spec, SubmitOptions{})
			if err != nil {
				t.Errorf("duplicate submit: %v", err)
				return
			}
			if dup.ID != st2.ID || outcome == OutcomeCached {
				t.Errorf("duplicate = %s/%s, want joined onto %s", dup.ID, outcome, st2.ID)
			}
		}()
	}
	wg.Wait()
	close(gate)
	if final := waitTerminal(t, m, st2.ID); final.State != StateDone {
		t.Fatalf("resumed job = %+v", final)
	}
	// Two executions total: the canceled original and the resumed one.
	if got := runs.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (no duplicate forked)", got)
	}
	if s := m.Stats(); s.Deduplicated != dups {
		t.Errorf("deduplicated = %d, want %d", s.Deduplicated, dups)
	}
}

// TestSubmitPriorityOrderViaManager: with the single worker busy, a later
// interactive job overtakes earlier bulk jobs.
func TestSubmitPriorityOrderViaManager(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string
	m := NewManager(Config{Workers: 1, QueueDepth: 8, run: func(ctx context.Context, s JobSpec, w int, h runHooks) error {
		mu.Lock()
		key, _ := s.Key()
		order = append(order, key)
		mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
		emitStubPoints(s, h)
		return nil
	}})
	defer m.Shutdown(context.Background())

	blocker, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)
	bulk, _, err := m.Submit(testSpec(1), SubmitOptions{Priority: PriorityBulk, Client: "batch"})
	if err != nil {
		t.Fatal(err)
	}
	inter, _, err := m.Submit(testSpec(2), SubmitOptions{Priority: PriorityInteractive, Client: "human"})
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Priority != PriorityBulk || inter.Priority != PriorityInteractive {
		t.Fatalf("statuses dropped priorities: %+v %+v", bulk, inter)
	}
	close(gate)
	waitTerminal(t, m, bulk.ID)
	waitTerminal(t, m, inter.ID)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != inter.ID || order[2] != bulk.ID {
		t.Errorf("execution order = %v, want interactive %s before bulk %s", order, inter.ID, bulk.ID)
	}
}

// TestRunSpecPayloadPinned pins the SHA-256 of the served result bytes for
// one small spec of each sweep kind. Payloads are cached under their spec's
// key and compared byte for byte by resume and failover, so a payload that
// changes for an unchanged spec breaks both; this pin catches it without a
// daemon.
func TestRunSpecPayloadPinned(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		sum  string
	}{
		{JobSpec{N: 120, Trials: 2, RValues: []float64{6, 3}, Seed: 3, Protocols: []string{"TRP-CCM", "SICP", "CICP"}},
			"7f6108e59989407b996354095c8145f863248a8196c433c3a7a5e4185ef900ca"},
		{JobSpec{Sweep: experiment.SweepDensity, Trials: 2, R: 6, NValues: []int{80, 40}, Seed: 3},
			"28960129838476ea452c84c0efe79562b50e951f291912dc6e1885b8289d8234"},
		{JobSpec{Sweep: experiment.SweepLoss, N: 120, Trials: 2, R: 6, LossValues: []float64{0.5, 0}, Seed: 3},
			"c0bc3b2414e60ae7535f3af7660dfd684ec37fe979f6190ff72f0a6b86579924"},
	} {
		payload, err := runSpec(context.Background(), tc.spec, 2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%s payload sha256 = %s, pinned %s\n%s", tc.spec.Normalized().Sweep, got, tc.sum, payload)
		}
	}
}
