// Package httpserve is the simulator's live introspection server: an
// opt-in HTTP endpoint (the CLIs' -http flag, off by default) that makes a
// long-running sweep observable while it runs instead of only after it
// exits. It serves:
//
//	/metrics             Prometheus text exposition of the obs.Registry: the
//	                     live obs.Collector snapshot, histogram buckets
//	                     included, plus every co-mounted subsystem's families
//	                     (a worker's queue and cache, a router's ring,
//	                     breakers and admission — its one status view)
//	/healthz, /readyz    liveness, and readiness (503 while draining)
//	/progress            the running sweep's latest experiment.Progress event
//	                     (completed/total work items, elapsed time, ETA)
//	/events?n=K          the most recent K events retained by an obs.Ring
//	/api/v1/timeseries   step-aligned history from a timeseries.DB
//	/api/v1/alerts       SLO burn-rate alert states from an evaluator
//	/debug/dash          zero-dependency HTML dashboard over the two above
//	/debug/pprof/        the standard runtime profiles
//
// The server is strictly observe-only: it reads snapshot copies guarded by
// the sinks' own locks and never touches simulation state, so attaching it
// cannot change any reported number, and with the flag unset none of this
// code runs at all (the nil-tracer fast path is untouched).
package httpserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/timeseries"
)

// Options selects which sinks the server exposes. Nil fields disable their
// endpoint (it answers 404).
type Options struct {
	// Collector backs /metrics.
	Collector *obs.Collector
	// Ring backs /events.
	Ring *obs.Ring
	// Progress backs /progress: it returns the current sweep state as JSON
	// (the latest func of experiment.TrackLatest is the canonical source).
	Progress func() ([]byte, error)
	// Ready backs /readyz: the endpoint answers 200 while Ready returns
	// true and 503 once it returns false (a job manager flips it during
	// graceful drain). Nil means always ready. /healthz is independent of
	// Ready: it answers 200 whenever the process can serve HTTP at all.
	Ready func() bool
	// Registry backs /metrics. NewHandler registers the Collector, Ring,
	// Timeseries and Alerts families into it (a fresh registry when nil);
	// co-mounted subsystems (the serve layer, the router) pass their own so
	// their families render beside them.
	Registry *obs.Registry
	// Timeseries backs /api/v1/timeseries and /debug/dash: the in-process
	// metric history recorded by a timeseries.Sampler.
	Timeseries *timeseries.DB
	// Alerts backs /api/v1/alerts and the netags_alert_active family on
	// /metrics: the SLO burn-rate evaluator running on the sampler's ticks.
	Alerts *timeseries.Evaluator
}

// NewHandler builds the introspection mux for the options. It is exported
// separately from Start so tests can drive it with net/http/httptest.
func NewHandler(o Options) http.Handler {
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if o.Collector != nil {
		o.Collector.Register(reg)
	}
	if o.Ring != nil {
		o.Ring.Register(reg)
	}
	if o.Timeseries != nil {
		o.Timeseries.Register(reg)
	}
	if o.Alerts != nil {
		o.Alerts.Register(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "netags introspection\n\n/metrics\n/progress\n/events?n=K\n/api/v1/timeseries\n/api/v1/alerts\n/healthz\n/readyz\n/debug/dash\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg.Len() == 0 {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w) //nolint:errcheck // the client hung up
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o.Ready != nil && !o.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		if o.Progress == nil {
			http.NotFound(w, r)
			return
		}
		b, err := o.Progress()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if o.Ring == nil {
			http.NotFound(w, r)
			return
		}
		limit := o.Ring.Cap()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n parameter", http.StatusBadRequest)
				return
			}
			limit = n
		}
		evs := o.Ring.Last(limit)
		w.Header().Set("Content-Type", "application/json")
		// The hand-rolled event encoding (obs.Event.AppendJSON) is reused so
		// the endpoint and the -trace-out JSONL stay byte-compatible per event.
		buf := make([]byte, 0, 256+64*len(evs))
		buf = append(buf, fmt.Sprintf(`{"total":%d,"returned":%d,"events":[`, o.Ring.Total(), len(evs))...)
		for i, ev := range evs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = ev.AppendJSON(buf)
		}
		buf = append(buf, ']', '}', '\n')
		w.Write(buf)
	})
	mux.HandleFunc("/api/v1/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if o.Timeseries == nil {
			http.NotFound(w, r)
			return
		}
		handleTimeseries(w, r, o.Timeseries)
	})
	mux.HandleFunc("/api/v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		if o.Alerts == nil {
			http.NotFound(w, r)
			return
		}
		states := o.Alerts.States()
		firing := 0
		for _, st := range states {
			if st.Firing {
				firing++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"firing": firing,
			"alerts": states,
		})
	})
	mux.HandleFunc("/debug/dash", func(w http.ResponseWriter, r *http.Request) {
		if o.Timeseries == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, dashHTML) //nolint:errcheck
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Server is a running introspection server. The zero of *Server is usable:
// every method no-ops on a nil receiver, so CLIs can wire it
// unconditionally behind an optional flag.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server
}

// Start listens on addr (":0" picks a free port) and serves the
// introspection endpoints in a background goroutine until Close.
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpserve: listen %s: %w", addr, err)
	}
	s := &Server{
		opts: o,
		ln:   ln,
		srv: &http.Server{
			Handler:           NewHandler(o),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Tracer returns the event sink feeding the server's collector and ring
// (nil when neither is configured, or on a nil receiver — preserving the
// nil-tracer fast path when -http is unset).
func (s *Server) Tracer() obs.Tracer {
	if s == nil {
		return nil
	}
	var sinks []obs.Tracer
	if s.opts.Collector != nil {
		sinks = append(sinks, s.opts.Collector)
	}
	if s.opts.Ring != nil {
		sinks = append(sinks, s.opts.Ring)
	}
	return obs.Multi(sinks...)
}

// Close stops listening and shuts the server down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
