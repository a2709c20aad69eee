package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netags/internal/experiment"
	"netags/internal/obs"
)

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull: the bounded queue is at capacity — backpressure, the
	// client should retry after Retry-After seconds (429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the manager is shutting down and accepts no new work (503).
	ErrDraining = errors.New("serve: server draining")
)

// JobState is the lifecycle of a job record.
type JobState string

// The job lifecycle: Queued → Running → one of Done/Failed/Canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config parameterizes a Manager. The zero value is usable: every field
// has a working default.
type Config struct {
	// QueueDepth bounds the jobs waiting for a worker (default 64). A full
	// queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// Workers is the pool size — how many jobs execute concurrently
	// (default 2).
	Workers int
	// JobWorkers is the per-job experiment worker budget, the cap on
	// goroutines one job's sweep may use (default GOMAXPROCS / Workers,
	// minimum 1). Bounding it per job keeps one big sweep from starving
	// the pool; results are bit-identical at any budget.
	JobWorkers int
	// CacheCapacity bounds how many retained done jobs keep their result
	// payload (default 256; negative = all of them). The least recently
	// used payload is dropped first; its job then answers 410 on /result.
	// Results therefore stay served for at most min(CacheCapacity, MaxJobs)
	// jobs.
	CacheCapacity int
	// MaxJobs bounds the job table; the oldest terminal jobs are pruned
	// beyond it, together with their checkpoint rows, payload, and timeline
	// (default 1024).
	MaxJobs int
	// CheckpointDir, when set, persists per-point checkpoints as NDJSON
	// files under it, so a killed process resumes its half-finished sweeps
	// on the next submission of the same spec. Empty = in-memory
	// checkpoints only (resume works within one process lifetime).
	CheckpointDir string
	// Tracer, if non-nil, receives every protocol run's event stream (wire
	// the server's obs.Collector/Ring here) plus the manager's own job
	// lifecycle events (obs.KindJob) — so /events shows serve activity
	// alongside sim activity. Must be concurrency-safe.
	Tracer obs.Tracer
	// Logger receives the manager's structured logs. nil discards them;
	// per-point logs are emitted at Debug, lifecycle transitions at Info,
	// rejections at Warn — so at the default Info level the per-point
	// execution path performs no logging work beyond one Enabled check.
	Logger *slog.Logger
	// TraceEventsPerJob bounds one job's lifecycle timeline (0 = default
	// 256 events: a verbatim head plus a ring of the most recent; negative
	// disables lifecycle tracing entirely — GET /jobs/{id}/trace answers
	// 404 and the per-point path skips the store).
	TraceEventsPerJob int
	// CheckpointTTL, when positive and CheckpointDir is set, purges
	// checkpoint NDJSON files left by earlier process lifetimes once they
	// go unreferenced for this long — on startup and every TTL/4, clamped
	// to [1min, 1h]. Zero disables the GC.
	CheckpointTTL time.Duration

	// run overrides job execution in tests. nil means runSpecHooked. The
	// contract: call h.pointDone once per non-skipped point with its row,
	// return when the sweep is complete or the context is canceled. The
	// manager assembles the payload from the checkpointed rows afterwards.
	run func(ctx context.Context, spec JobSpec, workers int, h runHooks) error
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.JobWorkers < 1 {
			c.JobWorkers = 1
		}
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.run == nil {
		c.run = runSpecHooked
	}
	return c
}

// SubmitOptions are the per-submission execution knobs. None of them can
// change the result bytes, so none is part of the spec or its cache key.
type SubmitOptions struct {
	// Workers caps the job's experiment worker budget (0 or anything above
	// the configured JobWorkers clamps to JobWorkers).
	Workers int
	// Priority is the scheduling class ("" = interactive).
	Priority Priority
	// Client identifies the submitter for per-client fairness within a
	// priority class ("" = one shared anonymous client).
	Client string
}

// Job is one submitted sweep: a spec, its content-addressed id, the
// execution state, and everything the manager keeps for it — checkpoint
// rows and stream subscribers, the lifecycle timeline, and the assembled
// payload. All of it lives in the manager's job table and leaves it
// together. Mutable fields are guarded by mu unless noted; done closes
// when the job reaches a terminal state.
type Job struct {
	// ID is the spec's content address — the job table key, the checkpoint
	// file name, and the stream identity. Identical specs share one job
	// while it is queued or running (singleflight).
	ID   string
	Spec JobSpec // normalized

	workers  int
	priority Priority
	client   string
	points   int    // sweep-axis length (the N of "point k/N")
	skip     []bool // checkpointed points to not recompute (resume)
	resumed  int    // how many points the checkpoint restored
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	mu        sync.Mutex
	state     JobState
	err       string
	dedup     int64
	submitted time.Time
	started   time.Time
	finished  time.Time
	rows      pointLog  // checkpoint rows, file handle, stream subscribers
	trace     *jobTrace // lifecycle timeline; nil when tracing is disabled
	// progress is the runner's last Progress event; Completed is 0 until
	// the first work item lands.
	progress experiment.Progress

	// Guarded by the manager's mu: the result payload, held while the job
	// is in the manager's payload LRU.
	payload []byte
	lru     *list.Element
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// markRunning transitions Queued → Running; it reports false if the job is
// already terminal (canceled while queued).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state exactly once and closes its
// checkpoint file handle (the file itself stays: on an incomplete job it
// is the resume state for the next submission).
func (j *Job) finish(state JobState, errMsg string) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	j.rows.closeFile()
	j.mu.Unlock()
	j.cancel() // release the context either way
	close(j.done)
	return true
}

// watch returns the replay of the job's records with Seq > after plus a
// live channel of subsequent appends. cancel unsubscribes (idempotent). A
// subscriber that falls more than the channel buffer behind is dropped —
// its channel closes, and it should re-watch from the last seq it saw.
func (j *Job) watch(after int) (replay []PointRecord, ch <-chan PointRecord, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rows.subs == nil {
		j.rows.subs = make(map[int]chan PointRecord)
	}
	sub := make(chan PointRecord, 256)
	id := j.rows.nextSub
	j.rows.nextSub++
	j.rows.subs[id] = sub
	return j.rows.since(after), sub, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.rows.subs[id] == sub {
			delete(j.rows.subs, id)
		}
	}
}

// since returns the job's records with Seq > after, in completion order.
func (j *Job) since(after int) []PointRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows.since(after)
}

// JobStatus is the JSON view of a job served by GET /api/v1/jobs and
// GET /api/v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Sweep string   `json:"sweep"`
	// Priority is the job's scheduling class.
	Priority Priority `json:"priority,omitempty"`
	// Deduplicated counts later submissions collapsed onto this execution.
	Deduplicated int64  `json:"deduplicated,omitempty"`
	Error        string `json:"error,omitempty"`
	// ResumedPoints counts sweep points restored from a checkpoint instead
	// of recomputed — nonzero exactly when this submission resumed an
	// interrupted run.
	ResumedPoints int    `json:"resumed_points,omitempty"`
	SubmittedAt   string `json:"submitted_at,omitempty"`
	StartedAt     string `json:"started_at,omitempty"`
	FinishedAt    string `json:"finished_at,omitempty"`
	// Progress is the runner's last Progress event: completed/total work
	// items, sweep elapsed time and ETA. On a resumed job the total counts
	// only the points actually being computed. Omitted until the first
	// work item lands.
	Progress *experiment.Progress `json:"progress,omitempty"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID: j.ID, State: j.state, Sweep: j.Spec.Sweep,
		Priority:     j.priority,
		Deduplicated: j.dedup, Error: j.err,
		ResumedPoints: j.resumed,
		SubmittedAt:   rfc3339(j.submitted),
		StartedAt:     rfc3339(j.started),
		FinishedAt:    rfc3339(j.finished),
	}
	if j.progress.Completed > 0 {
		p := j.progress
		st.Progress = &p
	}
	j.mu.Unlock()
	return st
}

// Manager owns the scheduler, the worker pool, and the job table: every
// retained job by key, each holding its own checkpoint rows, timeline and
// payload. Construct with NewManager, stop with Shutdown.
type Manager struct {
	cfg       Config
	ckpt      *checkpointDir
	sched     *schedQueue
	log       *slog.Logger
	traceHead int // per-job timeline head capacity; 0 = tracing disabled
	traceTail int
	reg       *obs.Registry
	slo       *sloHists
	http      *httpHists
	gcOff     chan struct{} // closes to stop the checkpoint GC loop

	mu    sync.Mutex
	jobs  map[string]*Job // the job table, by id (= spec key); a non-terminal entry is the singleflight entry
	order []string        // submission order for GET /jobs
	lru   list.List       // done jobs holding a payload, most recently used first
	bytes int64           // payload bytes held

	draining atomic.Bool

	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	executed  *obs.Counter // sweeps actually run to completion or failure
	deduped   *obs.Counter // submissions joined onto an in-flight job
	rejected  *obs.Counter // queue-full rejections
	resumed   *obs.Counter // points restored from checkpoints
	running   *obs.Gauge   // jobs currently executing
	hits      *obs.Counter // submissions answered from a held payload
	misses    *obs.Counter // submissions that found no payload
	evictions *obs.Counter // payloads dropped by the LRU bound
	dropped   *obs.Counter // timeline events lost to tail overwrite (nil when tracing is disabled)
}

// NewManager starts cfg.Workers pool goroutines (plus, when configured, a
// checkpoint-GC loop) and returns the manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		ckpt:  &checkpointDir{dir: cfg.CheckpointDir},
		sched: newSchedQueue(cfg.QueueDepth),
		log:   cfg.Logger,
		reg:   obs.NewRegistry(),
		gcOff: make(chan struct{}),
		jobs:  make(map[string]*Job),
	}
	if cfg.TraceEventsPerJob >= 0 {
		m.traceHead, m.traceTail = traceCaps(cfg.TraceEventsPerJob)
	}
	m.register()
	if cfg.CheckpointTTL > 0 && cfg.CheckpointDir != "" {
		if n := m.gcCheckpoints(); n > 0 {
			m.log.Info("checkpoint gc: purged stale files on startup",
				"purged", n, "ttl", cfg.CheckpointTTL.String())
		}
		go m.checkpointGCLoop(min(max(cfg.CheckpointTTL/4, time.Minute), time.Hour))
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// checkpointGCLoop purges stale checkpoint files every interval until
// Shutdown.
func (m *Manager) checkpointGCLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.gcOff:
			return
		case <-t.C:
			if n := m.gcCheckpoints(); n > 0 {
				m.log.Info("checkpoint gc: purged stale files",
					"purged", n, "ttl", m.cfg.CheckpointTTL.String())
			}
		}
	}
}

// gcCheckpoints purges stale checkpoint files whose key has no job in the
// table. It holds the table lock throughout, so a submission cannot load a
// file the GC is about to remove.
func (m *Manager) gcCheckpoints() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ckpt.gc(m.cfg.CheckpointTTL, func(key string) bool {
		_, ok := m.jobs[key]
		return ok
	})
}

// JobTrace renders job id's lifecycle timeline; ok is false when the job is
// untraced (unknown, pruned, never admitted, or tracing disabled).
func (m *Manager) JobTrace(id string) (TraceTimeline, bool) {
	j := m.jobRecord(id)
	if j == nil || j.trace == nil {
		return TraceTimeline{}, false
	}
	j.mu.Lock()
	evs, dropped := j.trace.events()
	j.mu.Unlock()
	return renderTimeline(id, evs, dropped), true
}

// emitJob records one lifecycle transition of job key: onto j's timeline
// (skipped when j is nil — a submission that was never admitted — or
// tracing is disabled) and mirrored to the configured Tracer as an
// obs.KindJob event, so /events interleaves serve activity with sim
// activity. Count carries k, Rounds carries n.
func (m *Manager) emitJob(j *Job, key, stage string, class Priority, k, n int, detail string) {
	if j != nil && j.trace != nil {
		j.mu.Lock()
		if j.trace.append(TraceEvent{Stage: stage, Class: class, K: k, N: n, Detail: detail}) {
			m.dropped.Add(1)
		}
		j.mu.Unlock()
	}
	if t := m.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind: obs.KindJob, Protocol: obs.ProtoServe, Phase: stage,
			Job: key, Count: k, Rounds: n,
		})
	}
}

// Accepting reports whether new submissions are admitted — the /readyz
// source; it flips false at the start of a graceful drain.
func (m *Manager) Accepting() bool {
	return !m.draining.Load()
}

// SubmitOutcome tells a client what its POST did.
type SubmitOutcome string

// Submission outcomes: served from cache, newly queued, or joined onto an
// already queued/running duplicate.
const (
	OutcomeCached  SubmitOutcome = "cached"
	OutcomeQueued  SubmitOutcome = "queued"
	OutcomeRunning SubmitOutcome = "running"
)

// Submit normalizes and validates the spec, then either serves it from a
// done job's held payload (OutcomeCached), joins it onto an in-flight
// duplicate (OutcomeQueued/OutcomeRunning, singleflight), or enqueues a
// new job under opts' priority class and client. A job whose spec matches
// an interrupted earlier run restores that run's checkpoint rows (from the
// previous job record, else from the checkpoint file): the completed
// points are skipped (exactly once per point) and the status reports them
// as ResumedPoints. A rejected submission leaves no state behind. Errors:
// validation errors, ErrQueueFull (backpressure), ErrDraining (shutdown).
func (m *Manager) Submit(spec JobSpec, opts SubmitOptions) (JobStatus, SubmitOutcome, error) {
	norm := spec.Normalized()
	if err := norm.Validate(); err != nil {
		return JobStatus{}, "", err
	}
	if !opts.Priority.Valid() {
		return JobStatus{}, "", fmt.Errorf("serve: unknown priority %q", opts.Priority)
	}
	key, err := norm.Key()
	if err != nil {
		return JobStatus{}, "", err
	}
	workers := opts.Workers
	if workers <= 0 || workers > m.cfg.JobWorkers {
		workers = m.cfg.JobWorkers
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.jobs[key]

	// Content-addressed fast path: the result already exists, byte-exact.
	// No lifecycle transition happens, so nothing lands in the trace.
	if prev != nil && prev.payload != nil {
		m.hits.Add(1)
		m.lru.MoveToFront(prev.lru)
		m.log.Debug("submit served from cache", "job", key, "sweep", norm.Sweep)
		return prev.Status(), OutcomeCached, nil
	}
	m.misses.Add(1)

	// Singleflight: a queued or running job for the key absorbs this
	// submission.
	if prev != nil && !prev.State().Terminal() {
		m.deduped.Add(1)
		prev.mu.Lock()
		prev.dedup++
		dedup := prev.dedup
		state := prev.state
		prev.mu.Unlock()
		m.emitJob(prev, key, StageReceived, "", 0, 0, "")
		m.emitJob(prev, key, StageDeduplicated, "", int(dedup), 0, "")
		m.log.Debug("submit deduplicated onto in-flight job",
			"job", key, "duplicates", dedup, "state", string(state))
		out := OutcomeQueued
		if state == StateRunning {
			out = OutcomeRunning
		}
		return prev.Status(), out, nil
	}

	if m.draining.Load() {
		m.emitJob(nil, key, StageReceived, "", 0, 0, "")
		m.emitJob(nil, key, StageRejected, "", 0, 0, CodeDraining)
		m.log.Warn("submit rejected: draining", "job", key)
		return JobStatus{}, "", ErrDraining
	}

	points := norm.PointCount()
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID: key, Spec: norm, workers: workers,
		priority:  opts.Priority.normalize(),
		client:    opts.Client,
		points:    points,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	if m.traceHead > 0 {
		j.trace = newJobTrace(m.traceHead, m.traceTail)
	}
	if prev != nil {
		prev.mu.Lock()
		j.rows.inherit(&prev.rows)
		prev.mu.Unlock()
	} else {
		m.ckpt.load(key, &j.rows)
	}
	j.skip, j.resumed = j.rows.restore(points)

	m.emitJob(j, key, StageReceived, j.priority, 0, points, "")
	if err := m.sched.Push(j); err != nil {
		cancel()
		if errors.Is(err, ErrQueueFull) {
			m.rejected.Add(1)
			m.emitJob(nil, key, StageRejected, j.priority, 0, 0, CodeQueueFull)
			m.log.Warn("submit rejected: queue full",
				"job", key, "class", string(j.priority), "client", j.client,
				"queue_depth", m.cfg.QueueDepth)
		}
		return JobStatus{}, "", err
	}
	if j.resumed > 0 {
		m.emitJob(j, key, StageCheckpointRestored, j.priority, j.resumed, points, "")
	}
	m.emitJob(j, key, StageAdmitted, j.priority, 0, points, "")
	m.log.Info("job admitted",
		"job", key, "sweep", norm.Sweep, "class", string(j.priority),
		"client", j.client, "points", points, "resumed_points", j.resumed)
	m.resumed.Add(int64(j.resumed))
	if prev == nil {
		m.order = append(m.order, key)
	}
	// A terminal predecessor is replaced in place: it holds no payload
	// (else this was a hit) and no open file, and its rows now live on j.
	m.jobs[key] = j
	m.pruneLocked()
	return j.Status(), OutcomeQueued, nil
}

// pruneLocked drops the oldest terminal jobs beyond MaxJobs. It is the one
// place jobs leave the table, and a job leaves with everything it holds:
// record, checkpoint rows and file, payload, and timeline. A pruned job
// answers 404 on every endpoint.
func (m *Manager) pruneLocked() {
	excess := len(m.jobs) - m.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if j := m.jobs[id]; excess > 0 && j.State().Terminal() {
			delete(m.jobs, id)
			m.dropPayloadLocked(j)
			m.ckpt.remove(id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// keepPayloadLocked stores a done job's payload at the front of the LRU,
// dropping the least recently used payloads beyond CacheCapacity.
func (m *Manager) keepPayloadLocked(j *Job, payload []byte) {
	j.payload = payload
	j.lru = m.lru.PushFront(j)
	m.bytes += int64(len(payload))
	for m.cfg.CacheCapacity > 0 && m.lru.Len() > m.cfg.CacheCapacity {
		m.dropPayloadLocked(m.lru.Back().Value.(*Job))
		m.evictions.Add(1)
	}
}

// dropPayloadLocked releases j's payload; its job, if still retained,
// answers 410 on /result.
func (m *Manager) dropPayloadLocked(j *Job) {
	if j.lru == nil {
		return
	}
	m.lru.Remove(j.lru)
	m.bytes -= int64(len(j.payload))
	j.payload, j.lru = nil, nil
}

// worker is one pool goroutine: it pops jobs until the scheduler closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.sched.Pop()
		if !ok {
			return
		}
		m.runJob(j)
	}
}

// runJob executes one job and settles its terminal state. Every computed
// point is checkpointed as it completes; on success the payload is
// assembled from the full checkpoint row set (restored + fresh) — one
// assembly path, so resumed and uninterrupted runs emit identical bytes.
func (m *Manager) runJob(j *Job) {
	queueWait := time.Since(j.submitted)
	if j.ctx.Err() != nil || !j.markRunning() {
		// Canceled while queued (DELETE or drain): settle and move on.
		m.end(j, StateCanceled, "canceled before execution")
		return
	}
	m.slo.observeQueueWait(j.priority, queueWait)
	m.emitJob(j, j.ID, StageScheduled, j.priority, int(ms(queueWait)), 0, "")
	m.emitJob(j, j.ID, StageRunning, j.priority, 0, 0, "")
	m.log.Info("job running",
		"job", j.ID, "class", string(j.priority), "queue_wait_ms", ms(queueWait),
		"workers", j.workers)
	m.running.Add(1)
	// The runner's events count only the items left to run and time them
	// from the sweep's own start, so queue wait and resumed points stay out
	// of the ETA.
	err := m.cfg.run(j.ctx, j.Spec, j.workers, runHooks{
		observe: func(p experiment.Progress) {
			j.mu.Lock()
			j.progress = p
			j.mu.Unlock()
		},
		tracer: m.cfg.Tracer,
		skip:   j.skip,
		pointDone: func(rec PointRecord) {
			m.pointCompleted(j, rec)
		},
	})
	m.running.Add(-1)
	m.executed.Add(1)
	switch {
	case err == nil:
		m.completeJob(j)
	case j.ctx.Err() != nil:
		// The checkpoint keeps everything completed so far; the next
		// submission of this spec resumes from it.
		m.end(j, StateCanceled, fmt.Sprintf("canceled: %v", err))
	default:
		m.end(j, StateFailed, err.Error())
	}
}

// end moves j to a terminal state and, if this call did it, records the
// transition.
func (m *Manager) end(j *Job, state JobState, detail string) {
	if j.finish(state, detail) {
		m.finishJobObs(j, state, detail)
	}
}

// pointCompleted is the per-point hot path: checkpoint the record, observe
// its compute time, and — only when the respective sink is enabled — trace
// and log the completion. With tracing disabled and logging at the default
// Info level this adds zero allocations over the row append itself
// (pinned by BenchmarkServePointDoneDisabled).
func (m *Manager) pointCompleted(j *Job, rec PointRecord) {
	j.mu.Lock()
	rec, stored := j.rows.add(rec)
	if stored {
		m.ckpt.append(j.ID, &j.rows.file, rec)
		if j.trace != nil && j.trace.append(TraceEvent{Stage: StagePointCompleted, K: rec.Seq, N: j.points}) {
			m.dropped.Add(1)
		}
	}
	j.mu.Unlock()
	if !stored {
		return
	}
	m.slo.point.Observe(int64(rec.ElapsedMS))
	if t := m.cfg.Tracer; t != nil {
		t.Trace(obs.Event{
			Kind: obs.KindJob, Protocol: obs.ProtoServe, Phase: StagePointCompleted,
			Job: j.ID, Count: rec.Seq, Rounds: j.points,
		})
	}
	if m.log.Enabled(context.Background(), slog.LevelDebug) {
		m.log.LogAttrs(context.Background(), slog.LevelDebug, "point completed",
			slog.String("job", j.ID), slog.Int("seq", rec.Seq), slog.Int("points", j.points),
			slog.String("label", rec.Label), slog.Float64("elapsed_ms", rec.ElapsedMS))
	}
}

// finishJobObs records a job's terminal transition: the end-to-end and
// execution SLO histograms, the terminal trace/ring event (stage drained
// when a shutdown interrupted the job), and the terminal log line.
func (m *Manager) finishJobObs(j *Job, state JobState, detail string) {
	j.mu.Lock()
	submitted, started, finished := j.submitted, j.started, j.finished
	j.mu.Unlock()
	if finished.IsZero() {
		finished = time.Now()
	}
	e2e := finished.Sub(submitted)
	m.slo.e2e.Observe(ms(e2e))
	var exec time.Duration
	if !started.IsZero() {
		exec = finished.Sub(started)
		m.slo.exec.Observe(ms(exec))
	}
	stage := StageCompleted
	switch state {
	case StateFailed:
		stage = StageFailed
	case StateCanceled:
		stage = StageCanceled
		if m.draining.Load() {
			stage = StageDrained
		}
	}
	m.emitJob(j, j.ID, stage, j.priority, int(ms(e2e)), 0, detail)
	level := slog.LevelInfo
	if state == StateFailed {
		level = slog.LevelError
	}
	m.log.LogAttrs(context.Background(), level, "job "+stage,
		slog.String("job", j.ID), slog.String("class", string(j.priority)),
		slog.Int64("e2e_ms", ms(e2e)), slog.Int64("exec_ms", ms(exec)),
		slog.String("detail", detail))
}

// completeJob assembles the final payload from the job's complete
// checkpoint row set, retires the checkpoint file, and stores the payload
// on the job in the same step that marks it done.
func (m *Manager) completeJob(j *Job) {
	j.mu.Lock()
	rows, ok := j.rows.rows(j.points)
	j.rows.closeFile()
	j.mu.Unlock()
	if !ok {
		m.end(j, StateFailed, "sweep finished with missing points in checkpoint")
		return
	}
	payload, err := assemblePayload(j.ID, j.Spec, rows)
	if err != nil {
		m.end(j, StateFailed, err.Error())
		return
	}
	m.ckpt.remove(j.ID)
	m.mu.Lock()
	m.keepPayloadLocked(j, payload)
	done := j.finish(StateDone, "")
	m.mu.Unlock()
	if done {
		m.finishJobObs(j, StateDone, "")
	}
}

// Job returns the status of job id; ok is false when it is unknown or was
// pruned.
func (m *Manager) Job(id string) (JobStatus, bool) {
	j := m.jobRecord(id)
	if j == nil {
		return JobStatus{}, false
	}
	return j.Status(), true
}

// jobRecord returns the table entry for id (nil when pruned or unknown).
func (m *Manager) jobRecord(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Jobs lists every retained job record in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	jobs := make([]*Job, len(m.order))
	for i, id := range m.order {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Result returns the rendered payload for id. ok is false when the job is
// unknown; an unfinished job, or a done job whose payload the LRU dropped,
// returns ok true with a nil payload and its current status.
func (m *Manager) Result(id string) ([]byte, JobStatus, bool) {
	j := m.jobRecord(id)
	if j == nil {
		return nil, JobStatus{}, false
	}
	// Status first: the payload is stored in the same step that marks the
	// job done, so a done status read here sees it unless it was dropped.
	st := j.Status()
	if st.State != StateDone {
		return nil, st, true
	}
	m.mu.Lock()
	payload := j.payload
	m.mu.Unlock()
	return payload, st, true
}

// Cancel cancels the job with the given id: a queued job settles
// immediately, a running one has its context canceled and settles when the
// sweep unwinds. Terminal jobs are left untouched. The job's checkpoint
// survives — resubmitting the spec resumes from it.
func (m *Manager) Cancel(id string) (JobStatus, bool) {
	j := m.jobRecord(id)
	if j == nil {
		return JobStatus{}, false
	}
	if j.State() == StateQueued {
		m.end(j, StateCanceled, "canceled by request")
		return j.Status(), true
	}
	m.log.Info("job cancel requested", "job", id, "state", string(j.State()))
	j.cancel()
	return j.Status(), true
}

// Shutdown drains the manager gracefully: new submissions are rejected
// (Accepting flips false, /readyz answers 503), queued jobs are canceled,
// and in-flight jobs get until ctx's deadline to complete before their
// contexts are canceled. Checkpoints of interrupted jobs survive for the
// next process. It blocks until the pool exits and is idempotent:
// concurrent and repeated calls all wait for the one drain and return the
// same error (the ctx error when the deadline forced cancellation).
func (m *Manager) Shutdown(ctx context.Context) error {
	m.closeOnce.Do(func() {
		m.draining.Store(true)
		close(m.gcOff)
		m.log.Info("drain started", "queued", m.sched.Len(), "running", m.running.Load())
		m.mu.Lock()
		// Reject everything still waiting for a worker. The records stay
		// (clients polling GET /jobs/{id} see "canceled"), the scheduler
		// entries are skipped by the workers.
		for _, j := range m.jobs {
			if j.State() == StateQueued {
				m.end(j, StateCanceled, "rejected: server shutting down")
			}
		}
		m.sched.Close()
		m.mu.Unlock()

		drained := make(chan struct{})
		go func() {
			m.wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			// Timeout: cancel in-flight jobs and wait for the unwind.
			m.mu.Lock()
			for _, j := range m.jobs {
				j.cancel()
			}
			m.mu.Unlock()
			<-drained
			m.closeErr = ctx.Err()
		}
		m.log.Info("drain finished", "forced", m.closeErr != nil)
	})
	return m.closeErr
}

// ManagerStats is a point-in-time view of the queue and pool counters.
type ManagerStats struct {
	Executed      int64 `json:"executed"`
	Deduplicated  int64 `json:"deduplicated"`
	Rejected      int64 `json:"rejected"`
	ResumedPoints int64 `json:"resumed_points"`
	Running       int64 `json:"running"`
	QueueLen      int   `json:"queue_len"`
	QueueDepth    int   `json:"queue_depth"`
	Jobs          int   `json:"jobs"`
}

// Stats snapshots the manager counters.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	jobs := len(m.jobs)
	m.mu.Unlock()
	return ManagerStats{
		Executed:      m.executed.Load(),
		Deduplicated:  m.deduped.Load(),
		Rejected:      m.rejected.Load(),
		ResumedPoints: m.resumed.Load(),
		Running:       m.running.Load(),
		QueueLen:      m.sched.Len(),
		QueueDepth:    m.cfg.QueueDepth,
		Jobs:          jobs,
	}
}

// tableStats counts what the job table holds, for the gauges on /metrics.
type tableStats struct {
	rowJobs, rows  int // jobs holding checkpoint rows; rows held
	traced, events int // jobs with a timeline; events retained
	payloads       int // done jobs holding a payload
	payloadBytes   int64
}

func (m *Manager) tableStats() tableStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := tableStats{payloads: m.lru.Len(), payloadBytes: m.bytes}
	for _, j := range m.jobs {
		j.mu.Lock()
		if n := len(j.rows.records); n > 0 {
			s.rowJobs++
			s.rows += n
		}
		if j.trace != nil {
			s.traced++
			s.events += j.trace.retained()
		}
		j.mu.Unlock()
	}
	return s
}

// Registry returns the manager's metric registry — every serve-layer
// family, and the source the time-series sampler reads.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// register resolves the manager's metric handles and adds its
// state-derived families.
func (m *Manager) register() {
	reg := m.reg
	stat := func(fn func(s tableStats) float64) func() float64 {
		return func() float64 { return fn(m.tableStats()) }
	}
	m.hits = reg.Counter("netags_serve_cache_hits_total", "Result cache hits (submission deduplicated without execution).")
	m.misses = reg.Counter("netags_serve_cache_misses_total", "Result cache misses (submission needed queueing or execution).")
	m.evictions = reg.Counter("netags_serve_cache_evictions_total", "Result payloads dropped by the CacheCapacity LRU bound.")
	reg.GaugeFunc("netags_serve_cache_entries", "Done jobs holding their result payload.",
		stat(func(s tableStats) float64 { return float64(s.payloads) }))
	reg.GaugeFunc("netags_serve_cache_bytes", "Result payload bytes held.",
		stat(func(s tableStats) float64 { return float64(s.payloadBytes) }))
	m.executed = reg.Counter("netags_serve_jobs_executed_total", "Sweeps actually executed (cache misses that ran).")
	m.deduped = reg.Counter("netags_serve_jobs_deduplicated_total", "Submissions collapsed onto an in-flight duplicate (singleflight).")
	m.rejected = reg.Counter("netags_serve_jobs_rejected_total", "Submissions rejected by queue backpressure.")
	m.resumed = reg.Counter("netags_serve_points_resumed_total", "Sweep points restored from checkpoints instead of recomputed.")
	m.running = reg.Gauge("netags_serve_jobs_running", "Jobs currently executing.")
	reg.GaugeFunc("netags_serve_queue_len", "Jobs waiting for a worker.",
		func() float64 { return float64(m.sched.Len()) })
	reg.GaugeFunc("netags_serve_queue_fill", "Fraction of the job queue's capacity in use.",
		func() float64 { return float64(m.sched.Len()) / float64(m.cfg.QueueDepth) })
	reg.GaugeFunc("netags_serve_jobs_retained", "Job records retained.",
		func() float64 { return float64(m.Stats().Jobs) })
	reg.GaugeFunc("netags_serve_checkpoint_jobs", "Retained jobs holding checkpoint rows.",
		stat(func(s tableStats) float64 { return float64(s.rowJobs) }))
	reg.GaugeFunc("netags_serve_checkpoint_points", "Sweep points currently checkpointed.",
		stat(func(s tableStats) float64 { return float64(s.rows) }))
	reg.CounterFunc("netags_serve_checkpoint_disk_errors_total", "Checkpoint disk writes that failed (degraded to memory-only).",
		m.ckpt.diskErrors.Load)
	reg.CounterFunc("netags_serve_checkpoint_purged_total", "Stale checkpoint files removed by the TTL garbage collector.",
		m.ckpt.purged.Load)
	// Per-class queue depth: both classes always present so dashboards can
	// plot a flat zero instead of a gap.
	reg.VecFunc("netags_serve_queue_class_len", "Jobs waiting for a worker, per priority class.", "gauge",
		[]string{"class"}, func(emit func(float64, ...string)) {
			lens := m.sched.ClassLens()
			for _, p := range []Priority{PriorityInteractive, PriorityBulk} {
				emit(float64(lens[p]), string(p))
			}
		})
	// Per-client in-queue counts (fairness visibility). Children exist
	// only while the client has queued work, so a scrape is bounded by the
	// queue capacity; client names come from requests, so the family is
	// not sampled into history.
	const clientLen = "netags_serve_queue_client_len"
	reg.VecFunc(clientLen, "Jobs waiting for a worker, per priority class and client.", "gauge",
		[]string{"class", "client"}, func(emit func(float64, ...string)) {
			for _, c := range m.sched.ClientLens() {
				client := c.Client
				if client == "" {
					client = "anonymous"
				}
				emit(float64(c.N), string(c.Class), client)
			}
		})
	reg.ExposeOnly(clientLen)
	if m.traceHead > 0 {
		reg.GaugeFunc("netags_serve_trace_jobs", "Retained jobs with a lifecycle timeline.",
			stat(func(s tableStats) float64 { return float64(s.traced) }))
		reg.GaugeFunc("netags_serve_trace_events", "Lifecycle trace events retained across all timelines.",
			stat(func(s tableStats) float64 { return float64(s.events) }))
		m.dropped = reg.Counter("netags_serve_trace_dropped_total", "Lifecycle trace events lost to per-job tail overwrite.")
	}
	m.slo = newSLOHists(reg)
	m.http = newHTTPHists(reg)
}
