// Job lifecycle tracing. Every job carries a timestamped timeline of its
// state transitions — received → admitted(class)/deduplicated/rejected →
// scheduled → running → point_completed k/N (with checkpoint_restored when
// a resume skipped work) → completed/failed/canceled/drained — in a bounded
// in-memory TraceStore keyed by job key. GET /api/v1/jobs/{id}/trace
// renders the timeline with per-stage durations, which is what turns "this
// job was slow" into "this job waited 40 s in the bulk queue behind three
// other clients, then ran in 2 s".
//
// Bounds: the store keeps at most maxJobs job timelines (oldest evicted
// first) and at most headCap+tailCap events per job. A long sweep keeps its
// first headCap events (the lifecycle head: received, admitted, restored,
// scheduled, running — the part that explains scheduling) verbatim and the
// most recent tailCap events in a ring, with an explicit dropped count in
// between, so memory stays constant no matter how many points a job has.
//
// The per-point append path is allocation-free once a job's trace exists:
// events are flat values written into preallocated buffers, stage names are
// package constants, and the k/N detail is stored as integers and only
// formatted at render time.
package serve

import (
	"sync"
	"time"

	"netags/internal/obs"
)

// Lifecycle stages recorded in a job trace (TraceEvent.Stage). These are
// also the Phase of the mirrored obs.KindJob events on /events.
const (
	StageReceived           = "received"            // submission arrived (post-validation)
	StageAdmitted           = "admitted"            // enqueued under a priority class
	StageDeduplicated       = "deduplicated"        // a later duplicate joined this job
	StageRejected           = "rejected"            // submission bounced (queue_full, draining)
	StageCheckpointRestored = "checkpoint_restored" // resume: K of N points skipped
	StageScheduled          = "scheduled"           // a worker dequeued the job
	StageRunning            = "running"             // sweep execution began
	StagePointCompleted     = "point_completed"     // one grid point landed (K of N)
	StageStreamReconnect    = "stream_reconnect"    // a client re-attached with a cursor
	StageCompleted          = "completed"           // terminal: payload assembled + cached
	StageFailed             = "failed"              // terminal: sweep error
	StageCanceled           = "canceled"            // terminal: DELETE or pre-run cancel
	StageDrained            = "drained"             // terminal: shutdown interrupted it
)

// TraceEvent is one timestamped lifecycle transition. It is a flat value
// type so the hot-path append is a struct copy into a preallocated buffer.
type TraceEvent struct {
	// Seq is the 1-based per-job event number (gaps mark dropped events).
	Seq int
	// T is the transition time.
	T time.Time
	// Stage is one of the Stage* constants.
	Stage string
	// Class is the scheduling class, set on admitted/scheduled events.
	Class Priority
	// K and N carry stage cardinality: points done / total points on
	// point_completed, points restored / total on checkpoint_restored,
	// duplicates so far on deduplicated, resume cursor on stream_reconnect.
	K, N int
	// Detail is a short free-form annotation (rejection reason, error).
	// Hot-path emitters pass "" or a constant; it never carries per-point
	// formatted text.
	Detail string
}

// Default trace store bounds; see Config.TraceEventsPerJob / TraceJobs.
const (
	defaultTraceHead = 32   // verbatim head events per job
	defaultTraceTail = 224  // ring of most recent events per job
	defaultTraceJobs = 1024 // job timelines retained
)

// jobTrace is one job's bounded timeline: the first len(head) events
// verbatim plus a ring of the most recent tail events.
type jobTrace struct {
	head  []TraceEvent               // first events, up to cap(head)
	tail  obs.RingBuffer[TraceEvent] // later events; allocated when head fills
	total int                        // events ever appended (Seq of the last one)
}

// retained is how many of the job's events the store still holds.
func (j *jobTrace) retained() int { return len(j.head) + j.tail.Len() }

// TraceStore is the bounded lifecycle trace store, keyed by job key.
// Construct with NewTraceStore; a nil *TraceStore is valid and disables
// tracing (every method no-ops), preserving the zero-cost path.
type TraceStore struct {
	headCap int
	tailCap int
	maxJobs int

	mu      sync.Mutex
	jobs    map[string]*jobTrace
	order   []string // insertion order, for eviction
	dropped int64    // monotonic: events lost to tail overwrite or timeline eviction
}

// NewTraceStore returns a store keeping at most eventsPerJob events per job
// (0 = default 256) across at most maxJobs jobs (0 = default 1024).
func NewTraceStore(eventsPerJob, maxJobs int) *TraceStore {
	head, tail := defaultTraceHead, defaultTraceTail
	if eventsPerJob > 0 {
		head = eventsPerJob / 8
		if head < 1 {
			head = 1
		}
		tail = eventsPerJob - head
		if tail < 1 {
			tail = 1
		}
	}
	if maxJobs <= 0 {
		maxJobs = defaultTraceJobs
	}
	return &TraceStore{
		headCap: head,
		tailCap: tail,
		maxJobs: maxJobs,
		jobs:    make(map[string]*jobTrace),
	}
}

// Append records one lifecycle event for job id, stamping Seq and (when
// ev.T is zero) the time. Allocation-free once the job's trace buffers
// exist; no-op on a nil store.
func (s *TraceStore) Append(id string, ev TraceEvent) {
	if s == nil {
		return
	}
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		j = &jobTrace{head: make([]TraceEvent, 0, s.headCap)}
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.evictLocked()
	}
	j.total++
	ev.Seq = j.total
	if len(j.head) < cap(j.head) {
		j.head = append(j.head, ev)
		return
	}
	if j.tail.Cap() == 0 {
		j.tail = obs.NewRingBuffer[TraceEvent](s.tailCap)
	}
	if j.tail.Push(ev) {
		s.dropped++
	}
}

// evictLocked drops the oldest job timelines beyond maxJobs, counting their
// retained events as dropped.
func (s *TraceStore) evictLocked() {
	for len(s.jobs) > s.maxJobs && len(s.order) > 0 {
		if j, ok := s.jobs[s.order[0]]; ok {
			s.dropped += int64(j.retained())
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Dropped returns the monotonic count of trace events lost to per-job tail
// overwrite or whole-timeline eviction — the drop-rate companion to the
// capacity gauges on /metrics. Forget (deliberate job pruning) does not
// count: it is bookkeeping, not loss under load.
func (s *TraceStore) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Forget drops job id's timeline (job-record pruning).
func (s *TraceStore) Forget(id string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return
	}
	delete(s.jobs, id)
	for i, k := range s.order {
		if k == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Events returns job id's retained timeline in Seq order plus the number of
// events dropped between the head and the tail. ok is false for an
// untraced job (or a nil store).
func (s *TraceStore) Events(id string) (evs []TraceEvent, dropped int, ok bool) {
	if s == nil {
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, 0, false
	}
	evs = j.tail.AppendTo(append(evs, j.head...))
	return evs, int(j.tail.Dropped()), true
}

// TraceTimelineEvent is the JSON view of one lifecycle event in
// GET /api/v1/jobs/{id}/trace.
type TraceTimelineEvent struct {
	Seq   int    `json:"seq"`
	Time  string `json:"t"` // RFC 3339, UTC
	Stage string `json:"stage"`
	// Class is the scheduling class on admitted/scheduled/terminal events.
	Class Priority `json:"class,omitempty"`
	// K/N carry stage cardinality (see TraceEvent.K); on scheduled events K
	// is the queue wait in milliseconds.
	K      int    `json:"k,omitempty"`
	N      int    `json:"n,omitempty"`
	Detail string `json:"detail,omitempty"`
	// SincePrevMS is the gap to the previous retained event — the per-stage
	// duration an operator reads the timeline for. Across a dropped-events
	// gap it still measures real elapsed time.
	SincePrevMS float64 `json:"since_prev_ms"`
}

// TraceTimeline is one job's rendered lifecycle timeline.
type TraceTimeline struct {
	Job    string               `json:"job"`
	Events []TraceTimelineEvent `json:"events"`
	// DroppedEvents counts mid-timeline events evicted by the per-job bound
	// (Seq gaps mark where).
	DroppedEvents int `json:"dropped_events,omitempty"`
	// Summary durations derived from the event timestamps: received →
	// scheduled, running → terminal, first → last event.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	ExecMS      float64 `json:"exec_ms"`
	TotalMS     float64 `json:"total_ms"`
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Timeline renders job id's retained events with per-stage durations. ok is
// false for an untraced job or a nil (disabled) store.
func (s *TraceStore) Timeline(id string) (TraceTimeline, bool) {
	evs, dropped, ok := s.Events(id)
	if !ok {
		return TraceTimeline{}, false
	}
	tl := TraceTimeline{Job: id, DroppedEvents: dropped, Events: make([]TraceTimelineEvent, len(evs))}
	var received, scheduled, running, terminal time.Time
	for i, ev := range evs {
		out := TraceTimelineEvent{
			Seq: ev.Seq, Time: ev.T.UTC().Format(time.RFC3339Nano),
			Stage: ev.Stage, Class: ev.Class, K: ev.K, N: ev.N, Detail: ev.Detail,
		}
		if i > 0 {
			out.SincePrevMS = msF(ev.T.Sub(evs[i-1].T))
		}
		tl.Events[i] = out
		switch ev.Stage {
		case StageReceived:
			if received.IsZero() {
				received = ev.T
			}
		case StageScheduled:
			scheduled = ev.T
		case StageRunning:
			running = ev.T
		case StageCompleted, StageFailed, StageCanceled, StageDrained:
			terminal = ev.T
		}
	}
	if !received.IsZero() && !scheduled.IsZero() {
		tl.QueueWaitMS = msF(scheduled.Sub(received))
	}
	if !running.IsZero() && !terminal.IsZero() {
		tl.ExecMS = msF(terminal.Sub(running))
	}
	if len(evs) > 1 {
		tl.TotalMS = msF(evs[len(evs)-1].T.Sub(evs[0].T))
	}
	return tl, true
}

// Stats is a point-in-time view of the store, for /metrics.
func (s *TraceStore) Stats() (jobs, events int) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		events += j.retained()
	}
	return len(s.jobs), events
}
