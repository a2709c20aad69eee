package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"netags/internal/obs"
)

// TestTraceStoreNilIsDisabled: with tracing disabled jobs carry no
// timeline, emitting is a no-op, and no trace families are registered.
func TestTraceStoreNilIsDisabled(t *testing.T) {
	m := NewManager(Config{Workers: 1, TraceEventsPerJob: -1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	j := &Job{ID: "x"}
	m.emitJob(j, j.ID, StageReceived, "", 0, 0, "") // must not panic
	if s := m.tableStats(); s.traced != 0 || s.events != 0 {
		t.Fatalf("disabled tracing stats = %+v", s)
	}
	if strings.Contains(promText(t, m.Registry()), "netags_serve_trace_") {
		t.Fatal("trace families registered with tracing disabled")
	}
}

// traceOf appends n point events to a fresh timeline of eventsPerJob.
func traceOf(eventsPerJob, n int) *jobTrace {
	tr := newJobTrace(traceCaps(eventsPerJob))
	for i := 0; i < n; i++ {
		tr.append(TraceEvent{Stage: StagePointCompleted, K: i + 1})
	}
	return tr
}

func TestTraceStoreHeadTailBounds(t *testing.T) {
	// 16 events per job → head 2, tail 14.
	const total = 50
	evs, dropped := traceOf(16, total).events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if dropped != total-16 {
		t.Fatalf("dropped = %d, want %d", dropped, total-16)
	}
	// Head is verbatim: Seq 1, 2. Tail is the most recent 14: Seq 37..50.
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("head seqs = %d,%d, want 1,2", evs[0].Seq, evs[1].Seq)
	}
	for i, ev := range evs[2:] {
		if want := total - 14 + 1 + i; ev.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTraceStoreShortJobKeepsEverything(t *testing.T) {
	tr := newJobTrace(traceCaps(0)) // defaults: 32 head + 224 tail
	stages := []string{StageReceived, StageAdmitted, StageScheduled, StageRunning, StageCompleted}
	for _, st := range stages {
		tr.append(TraceEvent{Stage: st})
	}
	evs, dropped := tr.events()
	if len(evs) != len(stages) || dropped != 0 {
		t.Fatalf("got %d events (%d dropped), want %d/0", len(evs), dropped, len(stages))
	}
	for i, ev := range evs {
		if ev.Stage != stages[i] || ev.Seq != i+1 {
			t.Fatalf("event %d = %q seq %d", i, ev.Stage, ev.Seq)
		}
	}
}

// TestTraceStoreEvictionAndForget: other jobs never evict a retained job's
// timeline, and the timeline leaves only when its job is pruned.
func TestTraceStoreEvictionAndForget(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 3, TraceEventsPerJob: 8, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	first := runDone(t, m, 0)
	for i := 1; i < 3; i++ {
		runDone(t, m, i)
	}
	if _, ok := m.JobTrace(first); !ok {
		t.Fatal("retained job lost its timeline")
	}
	runDone(t, m, 3) // prunes the first job
	if _, ok := m.JobTrace(first); ok {
		t.Fatal("pruned job's timeline survived")
	}
	if s := m.tableStats(); s.traced != 3 {
		t.Fatalf("timelines = %d, want 3", s.traced)
	}
}

func TestTraceTimelineDurations(t *testing.T) {
	tr := newJobTrace(traceCaps(0))
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.append(TraceEvent{Stage: StageReceived, T: at(0)})
	tr.append(TraceEvent{Stage: StageAdmitted, Class: PriorityBulk, T: at(1), N: 3})
	tr.append(TraceEvent{Stage: StageScheduled, Class: PriorityBulk, T: at(40), K: 40})
	tr.append(TraceEvent{Stage: StageRunning, T: at(41)})
	tr.append(TraceEvent{Stage: StagePointCompleted, T: at(50), K: 1, N: 3})
	tr.append(TraceEvent{Stage: StageCompleted, T: at(90)})

	evs, dropped := tr.events()
	tl := renderTimeline("job", evs, dropped)
	if tl.QueueWaitMS != 40 {
		t.Fatalf("queue_wait_ms = %v, want 40", tl.QueueWaitMS)
	}
	if tl.ExecMS != 49 {
		t.Fatalf("exec_ms = %v, want 49", tl.ExecMS)
	}
	if tl.TotalMS != 90 {
		t.Fatalf("total_ms = %v, want 90", tl.TotalMS)
	}
	if tl.Events[0].SincePrevMS != 0 {
		t.Fatalf("first since_prev_ms = %v, want 0", tl.Events[0].SincePrevMS)
	}
	if tl.Events[2].SincePrevMS != 39 {
		t.Fatalf("scheduled since_prev_ms = %v, want 39", tl.Events[2].SincePrevMS)
	}
	if got := tl.Events[1].Class; got != PriorityBulk {
		t.Fatalf("admitted class = %q", got)
	}
	if !strings.HasPrefix(tl.Events[0].Time, "2026-08-07T12:00:00") {
		t.Fatalf("timestamp = %q", tl.Events[0].Time)
	}
}

// TestManagerTraceLifecycle drives a real job through the manager and
// checks its timeline plus the mirrored obs.KindJob events in a Ring.
func TestManagerTraceLifecycle(t *testing.T) {
	ring := obs.NewRing(256)
	m := NewManager(Config{Workers: 1, Tracer: ring, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())

	st, _, err := m.Submit(testSpec(1), SubmitOptions{Priority: PriorityBulk, Client: "cli-a"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)

	tl, ok := m.JobTrace(st.ID)
	if !ok {
		t.Fatal("no trace for completed job")
	}
	var stages []string
	for _, ev := range tl.Events {
		stages = append(stages, ev.Stage)
	}
	for _, want := range []string{StageReceived, StageAdmitted, StageScheduled, StageRunning, StagePointCompleted, StageCompleted} {
		found := false
		for _, s := range stages {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("timeline missing stage %q: %v", want, stages)
		}
	}
	// The mirrored ring events carry the job id and the same stages.
	sawJob := false
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindJob && ev.Job == st.ID && ev.Phase == StageCompleted {
			sawJob = true
		}
	}
	if !sawJob {
		t.Fatal("ring missing mirrored completed event")
	}
}

func TestManagerTraceDisabled(t *testing.T) {
	m := NewManager(Config{Workers: 1, TraceEventsPerJob: -1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	st, _, err := m.Submit(testSpec(2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)
	if j := m.jobRecord(st.ID); j.trace != nil {
		t.Fatal("job has a timeline despite TraceEventsPerJob=-1")
	}
	if _, ok := m.JobTrace(st.ID); ok {
		t.Fatal("JobTrace answered with tracing disabled")
	}
}

// TestTraceStoreDropped: the monotonic drop counter counts per-job tail
// overwrites, while pruning a job (bookkeeping, not loss) stays uncounted.
func TestTraceStoreDropped(t *testing.T) {
	// 16 events per job → head 2, tail 14; overwrite starts at event 17.
	m := NewManager(Config{Workers: 1, MaxJobs: 1, TraceEventsPerJob: 16, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	if m.dropped.Load() != 0 {
		t.Fatalf("fresh manager dropped = %d", m.dropped.Load())
	}
	j := &Job{ID: "a", points: 50, trace: newJobTrace(m.traceHead, m.traceTail)}
	for i := 0; i < 50; i++ {
		m.pointCompleted(j, rec(i))
	}
	if got := m.dropped.Load(); got != 34 { // events 17..50 each overwrite one
		t.Fatalf("tail-overwrite dropped = %d, want 34", got)
	}
	if !strings.Contains(promText(t, m.Registry()), "netags_serve_trace_dropped_total 34") {
		t.Fatal("exposition does not carry the drop count")
	}

	// Jobs leaving the table through pruning are not loss.
	before := m.dropped.Load()
	runDone(t, m, 0)
	runDone(t, m, 1) // prunes the first
	if got := m.dropped.Load(); got != before {
		t.Fatalf("post-prune dropped = %d, want %d", got, before)
	}
}
