// Job lifecycle tracing. Every admitted job carries a timestamped timeline
// of its state transitions — received → admitted(class)/deduplicated →
// scheduled → running → point_completed k/N (with checkpoint_restored when
// a resume skipped work) → completed/failed/canceled/drained — on its own
// *Job, so the timeline leaves the manager's table with the job.
// GET /api/v1/jobs/{id}/trace renders it with per-stage durations, which
// is what turns "this job was slow" into "this job waited 40 s in the bulk
// queue behind three other clients, then ran in 2 s". A submission that is
// never admitted (rejected) gets no timeline: its received/rejected events
// reach only the Tracer (/events) and the log.
//
// Bounds: at most headCap+tailCap events per job. A long sweep keeps its
// first headCap events (the lifecycle head: received, admitted, restored,
// scheduled, running — the part that explains scheduling) verbatim and the
// most recent tailCap events in a ring, with an explicit dropped count in
// between, so memory stays constant no matter how many points a job has.
//
// The per-point append path is allocation-free once a job's tail ring
// exists: events are flat values written into preallocated buffers, stage
// names are package constants, and the k/N detail is stored as integers
// and only formatted at render time.
package serve

import (
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

// Default per-job timeline bounds; see Config.TraceEventsPerJob.
const (
	defaultTraceHead = 32  // verbatim head events per job
	defaultTraceTail = 224 // ring of most recent events per job
)

// traceCaps splits a per-job event budget into head and tail capacities
// (0 = the defaults).
func traceCaps(eventsPerJob int) (head, tail int) {
	if eventsPerJob <= 0 {
		return defaultTraceHead, defaultTraceTail
	}
	head = max(eventsPerJob/8, 1)
	return head, max(eventsPerJob-head, 1)
}

// jobTrace is one job's bounded timeline: the first cap(head) events
// verbatim plus a ring of the most recent tailCap events. The owning Job's
// mutex guards it.
type jobTrace struct {
	head    []TraceEvent               // first events, up to cap(head)
	tail    obs.RingBuffer[TraceEvent] // later events; allocated when head fills
	tailCap int
	total   int // events ever appended (Seq of the last one)
}

func newJobTrace(head, tail int) *jobTrace {
	return &jobTrace{head: make([]TraceEvent, 0, head), tailCap: tail}
}

// retained is how many of the job's events the timeline still holds.
func (t *jobTrace) retained() int { return len(t.head) + t.tail.Len() }

// append records one lifecycle event, stamping Seq and (when ev.T is zero)
// the time. It reports whether the tail overwrote an older event.
// Allocation-free once the tail ring exists.
func (t *jobTrace) append(ev TraceEvent) (dropped bool) {
	if ev.T.IsZero() {
		ev.T = time.Now()
	}
	t.total++
	ev.Seq = t.total
	if len(t.head) < cap(t.head) {
		t.head = append(t.head, ev)
		return false
	}
	if t.tail.Cap() == 0 {
		t.tail = obs.NewRingBuffer[TraceEvent](t.tailCap)
	}
	return t.tail.Push(ev)
}

// events returns the retained timeline in Seq order plus the number of
// events dropped between the head and the tail.
func (t *jobTrace) events() ([]TraceEvent, int) {
	return t.tail.AppendTo(append([]TraceEvent(nil), t.head...)), int(t.tail.Dropped())
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

// renderTimeline renders job id's retained events with per-stage
// durations.
func renderTimeline(id string, evs []TraceEvent, dropped int) TraceTimeline {
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
	return tl
}
