// The HTTP face of the serve layer. NewHandler mounts the versioned jobs
// API beside the introspection endpoints (one mux, one port):
//
//	POST   /api/v1/jobs              submit a sweep job → {id, status} where
//	                                 status ∈ cached | queued | running
//	GET    /api/v1/jobs              list retained job records
//	GET    /api/v1/jobs/{id}         one job's status, progress, and ETA
//	GET    /api/v1/jobs/{id}/trace   lifecycle timeline with per-stage durations
//	GET    /api/v1/jobs/{id}/result  the rendered result JSON (202 pending)
//	GET    /api/v1/jobs/{id}/stream  NDJSON tail of per-point results;
//	                                 resume with ?after=SEQ
//	DELETE /api/v1/jobs/{id}         cancel a queued or running job
//
// Every error is the one envelope
// {"error":{"code":"...","message":"..."}}. Backpressure: a full queue
// answers 429 (code "queue_full") with a Retry-After header; a draining
// server answers 503 (code "draining").
//
// The mux also serves /metrics (the manager's registry: serve cache, queue,
// checkpoint, SLO-histogram, and HTTP-latency families, plus the collector
// snapshot when one is configured), /events, /healthz, /readyz, and
// /debug/pprof/ from internal/obs/httpserve. A job's live progress is the
// progress field of its status on /api/v1/jobs.
//
// The whole mux sits behind one middleware wrapper (middleware.go):
// X-Request-ID injection/propagation, panic recovery, per-route/per-status
// latency histograms, and structured access logs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"

	"netags/internal/obs/httpserve"
)

// APIPrefix is the versioned mount point of the jobs API.
const APIPrefix = "/api/v1"

// SubmitRequest is the POST /api/v1/jobs body.
type SubmitRequest struct {
	// Spec is the job to run (see JobSpec for the cache-key contract).
	Spec JobSpec `json:"spec"`
	// Workers optionally caps the job's experiment worker budget. It is an
	// execution knob, not part of the spec: it cannot change the result
	// bytes and is excluded from the cache key. 0 means the server default;
	// values above the server's per-job cap clamp to it.
	Workers int `json:"workers,omitempty"`
	// Priority selects the scheduling class: "interactive" (default) or
	// "bulk". Interactive jobs always dispatch first; use bulk for batch
	// fan-outs that should yield to humans. Not part of the cache key.
	Priority Priority `json:"priority,omitempty"`
	// Client identifies the submitter for per-client fairness within a
	// priority class. Empty defaults to the connection's remote host.
	Client string `json:"client,omitempty"`
}

// SubmitResponse is the POST /api/v1/jobs reply.
type SubmitResponse struct {
	ID     string        `json:"id"`
	Status SubmitOutcome `json:"status"`
	Job    JobStatus     `json:"job"`
}

// StreamEvent is one NDJSON line of GET /api/v1/jobs/{id}/stream. Events
// arrive in seq order: one "point" per completed sweep point, then exactly
// one "state" carrying the job's terminal status. Reconnect with
// ?after=<last seen seq> to receive only what was missed.
type StreamEvent struct {
	// Seq is the cursor: the point's completion number, or for the final
	// state event the last point seq streamed.
	Seq   int    `json:"seq"`
	Event string `json:"event"` // "point" | "state"
	// Point is set on "point" events.
	Point *PointRecord `json:"point,omitempty"`
	// State is set on the final "state" event.
	State *JobStatus `json:"state,omitempty"`
}

// Error codes carried in the error envelope — stable, machine-matchable
// names for each failure class (the HTTP status is the coarse version).
const (
	CodeBadRequest = "bad_request" // malformed body, invalid spec/priority
	CodeQueueFull  = "queue_full"  // backpressure; honor Retry-After
	CodeDraining   = "draining"    // server shutting down
	CodeNotFound   = "not_found"   // unknown job id
	CodeConflict   = "conflict"    // job canceled
	CodeGone       = "gone"        // result evicted; resubmit the spec
	CodeInternal   = "internal"    // job failed or server-side error
)

// maxSpecBody bounds the POST body (a spec with full axes fits easily).
const maxSpecBody = 1 << 20

// NewHandler builds the combined mux: the jobs API under /api/v1 plus the
// introspection endpoints. Unset obsOpts fields are wired to the manager:
// Ready to Accepting, Registry to the manager's registry.
func NewHandler(m *Manager, obsOpts httpserve.Options) http.Handler {
	if obsOpts.Ready == nil {
		obsOpts.Ready = m.Accepting
	}
	if obsOpts.Registry == nil {
		obsOpts.Registry = m.reg
	}

	mux := http.NewServeMux()
	mux.Handle("/", httpserve.NewHandler(obsOpts))
	registerJobs(mux, m)
	return withMiddleware(mux, m.log, m.http)
}

func registerJobs(mux *http.ServeMux, m *Manager) {
	const prefix = APIPrefix
	mux.HandleFunc("POST "+prefix+"/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET "+prefix+"/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, struct {
			Jobs []JobStatus `json:"jobs"`
		}{Jobs: m.Jobs()})
	})
	mux.HandleFunc("GET "+prefix+"/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Job(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job")
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		handleTrace(m, w, r)
	})
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		handleResult(m, w, r)
	})
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		handleStream(m, w, r)
	})
	mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job")
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	client := req.Client
	if client == "" {
		// Per-client fairness falls back to the connection's remote host.
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	st, outcome, err := m.Submit(req.Spec, SubmitOptions{
		Workers:  req.Workers,
		Priority: req.Priority,
		Client:   client,
	})
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(m)))
		WriteError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error())
		return
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	code := http.StatusAccepted
	if outcome == OutcomeCached {
		code = http.StatusOK
	}
	WriteJSON(w, code, SubmitResponse{ID: st.ID, Status: outcome, Job: st})
}

// handleTrace serves a job's lifecycle timeline. 404 covers the cases
// with no timeline under one answer: unknown or pruned job, a submission
// that was never admitted, tracing disabled.
func handleTrace(m *Manager, w http.ResponseWriter, r *http.Request) {
	tl, ok := m.JobTrace(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no trace for job (unknown, pruned, never admitted, or tracing disabled)")
		return
	}
	WriteJSON(w, http.StatusOK, tl)
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	payload, st, ok := m.Result(r.PathValue("id"))
	switch {
	case !ok:
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job")
	case st.State == StateFailed:
		WriteError(w, http.StatusInternalServerError, CodeInternal, "job failed: "+st.Error)
	case st.State == StateCanceled:
		WriteError(w, http.StatusConflict, CodeConflict, "job canceled; resubmit the spec to resume it")
	case st.State != StateDone:
		// Still queued or running: point the client back at the status.
		WriteJSON(w, http.StatusAccepted, st)
	case payload == nil:
		// Done but the payload LRU dropped the payload: the content address
		// still names it — resubmitting recomputes the same bytes.
		WriteError(w, http.StatusGone, CodeGone, "result evicted from cache; resubmit the spec")
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
	}
}

// handleStream tails a job's per-point results as NDJSON. The full history
// is replayed from the checkpoint (from seq 0, or after the client's
// ?after= cursor), then events stream live until the job reaches a
// terminal state, at which point one final "state" event closes the
// stream. Works on running, queued, and already-terminal jobs alike — a
// done job simply replays and finishes immediately. A cursor past the
// job's point count names no seq the job can stream and is rejected.
func handleStream(m *Manager, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := m.jobRecord(id)
	if j == nil {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job")
		return
	}
	after := 0
	if cursor := r.URL.Query().Get("after"); cursor != "" {
		n, err := strconv.Atoi(cursor)
		if err != nil || n < 0 || n > j.points {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("after must be an integer in 0..%d (the job's point count)", j.points))
			return
		}
		after = n
	}
	if after > 0 {
		// A cursor means the client is resuming a broken stream — worth a
		// mark on the job's timeline.
		m.emitJob(j, id, StageStreamReconnect, "", after, 0, "")
		m.log.Debug("stream reconnect",
			"job", id, "after", after, "request_id", RequestID(r.Context()))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush() // ship the headers now; events may be a long time coming
	enc := json.NewEncoder(w)
	emit := func(ev StreamEvent) bool {
		if enc.Encode(ev) != nil {
			return false
		}
		rc.Flush()
		return true
	}

	last := after
	ctx := r.Context()
stream:
	for {
		// Subscribe, replay what the cursor missed, then go live. A dropped
		// (lagging) subscription closes its channel; we just resubscribe
		// from the last seq we delivered — the replay fills the gap.
		replay, ch, cancel := j.watch(last)
		for _, rec := range replay {
			rec := rec
			if !emit(StreamEvent{Seq: rec.Seq, Event: "point", Point: &rec}) {
				cancel()
				return
			}
			last = rec.Seq
		}
		for {
			select {
			case rec, ok := <-ch:
				if !ok {
					cancel()
					continue stream // lagged: resubscribe and re-replay
				}
				if rec.Seq <= last {
					continue
				}
				if !emit(StreamEvent{Seq: rec.Seq, Event: "point", Point: &rec}) {
					cancel()
					return
				}
				last = rec.Seq
			case <-j.Done():
				cancel()
				// Final sweep: points that completed between our last event
				// and the job settling.
				for _, rec := range j.since(last) {
					rec := rec
					if !emit(StreamEvent{Seq: rec.Seq, Event: "point", Point: &rec}) {
						return
					}
					last = rec.Seq
				}
				break stream
			case <-ctx.Done():
				cancel()
				return
			}
		}
	}
	final := j.Status()
	emit(StreamEvent{Seq: last, Event: "state", State: &final})
}

// retryAfterSeconds is the backpressure hint on a 429: one second per job
// already waiting, floored at 1 — crude, but monotone in queue pressure.
func retryAfterSeconds(m *Manager) int {
	if n := m.Stats().QueueLen; n > 1 {
		return n
	}
	return 1
}

// WriteJSON writes v as a JSON reply with the status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

// errorEnvelope is the single error shape every handler speaks:
// {"error":{"code":"...","message":"..."}}.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteError writes the error envelope; the router speaks it too, so
// cluster and worker rejections look the same to clients.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorEnvelope{Error: errorDetail{Code: code, Message: msg}})
	w.Write(append(b, '\n'))
}
