package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netags/internal/experiment"
)

// testSpec returns a tiny valid range spec; vary v to vary the key.
func testSpec(v int) JobSpec {
	return JobSpec{N: 100 + v, Trials: 1, RValues: []float64{6}}
}

// emitStubPoints checkpoints one synthetic deterministic row per
// non-skipped point, as the real runner would.
func emitStubPoints(spec JobSpec, h runHooks) {
	n := spec.Normalized()
	for i := 0; i < n.PointCount(); i++ {
		if h.skip != nil && i < len(h.skip) && h.skip[i] {
			continue
		}
		if h.pointDone != nil {
			h.pointDone(PointRecord{
				Index: i,
				Label: n.PointLabel(i),
				Row:   json.RawMessage(fmt.Sprintf(`{"point":%d}`, i)),
			})
		}
	}
}

// stubRun builds a run override that emits a synthetic row per point after
// optionally blocking on a gate channel.
func stubRun(executions *atomic.Int64, gate <-chan struct{}) func(context.Context, JobSpec, int, runHooks) error {
	return func(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
		if executions != nil {
			executions.Add(1)
		}
		// One item lands before the gate, so a gated job's status already
		// carries the runner's progress.
		if h.observe != nil {
			h.observe(experiment.Progress{Sweep: spec.Sweep, Trial: 0, Trials: spec.Trials,
				Completed: 1, Total: spec.PointCount() * spec.Trials})
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		emitStubPoints(spec, h)
		return nil
	}
}

func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func waitTerminal(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return JobStatus{}
}

func TestManagerLifecycle(t *testing.T) {
	var execs atomic.Int64
	m := NewManager(Config{Workers: 2, run: stubRun(&execs, nil)})
	defer m.Shutdown(context.Background())

	st, outcome, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("Submit = %v, %v, %v", st, outcome, err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state %s (%s)", final.State, final.Error)
	}
	payload, _, ok := m.Result(st.ID)
	if !ok || payload == nil {
		t.Fatal("result missing after done")
	}

	// Resubmission: a pure cache hit, no second execution.
	st2, outcome2, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil || outcome2 != OutcomeCached || st2.ID != st.ID {
		t.Fatalf("resubmit = %v, %v, %v", st2, outcome2, err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

// TestManagerSingleflight: concurrent duplicate submissions collapse onto
// one execution; every submitter observes the same job id and payload.
func TestManagerSingleflight(t *testing.T) {
	var execs atomic.Int64
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 2, run: stubRun(&execs, gate)})
	defer m.Shutdown(context.Background())

	const submitters = 16
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := m.Submit(testSpec(0), SubmitOptions{})
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(gate)

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("submitters saw different ids: %s vs %s", id, ids[0])
		}
	}
	waitTerminal(t, m, ids[0])
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (singleflight)", got)
	}
	if s := m.Stats(); s.Deduplicated != submitters-1 {
		t.Errorf("deduplicated = %d, want %d", s.Deduplicated, submitters-1)
	}
	p1, _, _ := m.Result(ids[0])
	p2, _, _ := m.Result(ids[0])
	if string(p1) != string(p2) || p1 == nil {
		t.Error("payload unstable across reads")
	}
}

// TestManagerBackpressure: a full queue rejects with ErrQueueFull and
// counts the rejection.
func TestManagerBackpressure(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 1, run: stubRun(nil, gate)})
	defer func() { close(gate); m.Shutdown(context.Background()) }()

	// First job occupies the worker, second fills the queue slot; keep
	// submitting distinct specs until the queue is provably full.
	var err error
	for i := 0; i < 8; i++ {
		_, _, err = m.Submit(testSpec(i), SubmitOptions{})
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if s := m.Stats(); s.Rejected == 0 {
		t.Error("rejection not counted")
	}
}

// TestManagerCancelQueued: canceling a queued job settles it without
// execution.
func TestManagerCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	var execs atomic.Int64
	m := NewManager(Config{Workers: 1, QueueDepth: 4, run: stubRun(&execs, gate)})
	defer m.Shutdown(context.Background())

	blocker, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := m.Submit(testSpec(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.Cancel(queued.ID)
	if !ok || st.State != StateCanceled {
		t.Fatalf("cancel queued = %v, %v", st, ok)
	}
	close(gate)
	waitTerminal(t, m, blocker.ID)
	waitTerminal(t, m, queued.ID)
	if got := execs.Load(); got != 1 {
		t.Errorf("canceled job executed (execs = %d)", got)
	}
	// A canceled job's slot is free again: resubmitting re-queues it.
	st2, outcome, err := m.Submit(testSpec(1), SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("resubmit after cancel = %v, %v, %v", st2, outcome, err)
	}
	waitTerminal(t, m, st2.ID)
}

// TestManagerCancelRunning: canceling a running job cancels its context
// and the job settles as canceled.
func TestManagerCancelRunning(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := NewManager(Config{Workers: 1, run: stubRun(nil, gate)})
	defer m.Shutdown(context.Background())

	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := m.Job(st.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Cancel(st.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if _, _, ok := m.Result(st.ID); !ok {
		t.Fatal("canceled job record gone")
	}
}

// TestManagerFailedJobNotCached: failures are not memoized — a
// resubmission retries.
func TestManagerFailedJobNotCached(t *testing.T) {
	var attempts atomic.Int64
	m := NewManager(Config{Workers: 1, run: func(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
		if attempts.Add(1) == 1 {
			return errors.New("transient failure")
		}
		emitStubPoints(spec, h)
		return nil
	}})
	defer m.Shutdown(context.Background())

	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateFailed ||
		!strings.Contains(final.Error, "transient failure") {
		t.Fatalf("first attempt = %+v", final)
	}
	st2, outcome, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("resubmit after failure = %v %v", outcome, err)
	}
	if final := waitTerminal(t, m, st2.ID); final.State != StateDone {
		t.Fatalf("retry = %+v", final)
	}
	if attempts.Load() != 2 {
		t.Errorf("attempts = %d, want 2", attempts.Load())
	}
}

// TestManagerShutdownGraceful is the satellite's first case: an in-flight
// job completes within the timeout and shutdown reports success.
func TestManagerShutdownGraceful(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, run: stubRun(nil, gate)})
	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	// Release the job shortly after the drain begins.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}
	if final, _ := m.Job(st.ID); final.State != StateDone {
		t.Errorf("in-flight job state after drain = %s, want done", final.State)
	}
}

// TestManagerShutdownTimeout: a job that outlives the timeout is canceled,
// and the deadline error surfaces.
func TestManagerShutdownTimeout(t *testing.T) {
	gate := make(chan struct{}) // never released: the job blocks until canceled
	defer close(gate)
	m := NewManager(Config{Workers: 1, run: stubRun(nil, gate)})
	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown error = %v, want deadline exceeded", err)
	}
	if final, _ := m.Job(st.ID); final.State != StateCanceled {
		t.Errorf("in-flight job state after forced drain = %s, want canceled", final.State)
	}
}

// TestManagerShutdownRejectsQueued: queued jobs are rejected (canceled)
// at drain start and new submissions get ErrDraining.
func TestManagerShutdownRejectsQueued(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 4, run: stubRun(nil, gate)})

	running, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)
	queued, _, err := m.Submit(testSpec(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Accepting() {
		t.Fatal("manager not accepting before drain")
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Accepting() {
		t.Error("manager still accepting after drain")
	}
	if st, _ := m.Job(queued.ID); st.State != StateCanceled ||
		!strings.Contains(st.Error, "shutting down") {
		t.Errorf("queued job after drain = %+v, want canceled/rejected", st)
	}
	if st, _ := m.Job(running.ID); st.State != StateDone {
		t.Errorf("running job after drain = %s, want done", st.State)
	}
	if _, _, err := m.Submit(testSpec(2), SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during/after drain = %v, want ErrDraining", err)
	}
}

// TestManagerShutdownIdempotentConcurrent is the satellite's last case:
// many concurrent Shutdown calls all complete and agree on the error.
func TestManagerShutdownIdempotentConcurrent(t *testing.T) {
	var execs atomic.Int64
	m := NewManager(Config{Workers: 2, run: stubRun(&execs, nil)})
	if _, _, err := m.Submit(testSpec(0), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const callers = 8
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Shutdown(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Errorf("caller %d error %v differs from %v", i, err, errs[0])
		}
	}
	// And again, sequentially: still the same answer, no panic on the
	// closed queue.
	if err := m.Shutdown(ctx); err != errs[0] {
		t.Errorf("late Shutdown = %v, want %v", err, errs[0])
	}
}

// TestManagerPrune: terminal records beyond MaxJobs are pruned, and a
// pruned job is gone everywhere — its status and its result alike.
func TestManagerPrune(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 2, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, runDone(t, m, i))
	}
	if got := len(m.Jobs()); got > 2 {
		t.Errorf("retained %d records, want <= 2", got)
	}
	if st, ok := m.Job(ids[0]); ok {
		t.Errorf("pruned job status = %+v", st)
	}
	if payload, _, ok := m.Result(ids[0]); ok || payload != nil {
		t.Error("pruned job result still served")
	}
	if s := m.tableStats(); s.payloads != 2 {
		t.Errorf("payloads held = %d, want 2 (only retained jobs)", s.payloads)
	}
}

// TestManagerWorkersClamp: the per-job budget clamps to the configured cap.
func TestManagerWorkersClamp(t *testing.T) {
	got := make(chan int, 1)
	m := NewManager(Config{Workers: 1, JobWorkers: 3, run: func(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
		got <- workers
		emitStubPoints(spec, h)
		return nil
	}})
	defer m.Shutdown(context.Background())
	st, _, err := m.Submit(testSpec(0), SubmitOptions{Workers: 100})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	if w := <-got; w != 3 {
		t.Errorf("worker budget = %d, want clamp to 3", w)
	}
}

func TestManagerStatsAndProm(t *testing.T) {
	m := NewManager(Config{Workers: 1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	st, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	out := promText(t, m.Registry())
	for _, want := range []string{
		"netags_serve_cache_hits_total",
		"netags_serve_jobs_executed_total 1",
		"netags_serve_queue_len 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	if s := m.Stats(); s.Executed != 1 || s.QueueDepth == 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestManagerRealSweepDeterminism runs a real (tiny) sweep through the
// manager and checks the payload is byte-identical to a direct runSpec
// call — the service layer adds queueing and caching, never different
// bytes. It also pins worker-budget independence at the service level.
func TestManagerRealSweepDeterminism(t *testing.T) {
	spec := JobSpec{N: 120, Trials: 2, RValues: []float64{4, 8}, Seed: 7}
	direct, err := runSpec(context.Background(), spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct2, err := runSpec(context.Background(), spec, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(direct) != string(direct2) {
		t.Fatal("runSpec not worker-count independent")
	}

	m := NewManager(Config{Workers: 2})
	defer m.Shutdown(context.Background())
	st, _, err := m.Submit(spec, SubmitOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateDone {
		t.Fatalf("job = %+v", final)
	}
	payload, _, _ := m.Result(st.ID)
	if string(payload) != string(direct) {
		t.Errorf("service payload differs from direct run:\n%s\nvs\n%s", payload, direct)
	}
	// The payload embeds the job's own content address.
	if !strings.Contains(string(payload), fmt.Sprintf("%q:%q", "key", st.ID)) {
		t.Errorf("payload does not embed its key %s: %s", st.ID, payload)
	}
}
