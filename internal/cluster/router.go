// The cluster router: one HTTP front door over N ccmserve workers.
//
// Request flow for a submission:
//
//	POST /api/v1/jobs
//	  → admission (per-client token bucket, utilization shedding; 429 +
//	    Retry-After at the edge, bulk shed before interactive)
//	  → key = SHA-256 content address of the canonicalized spec
//	  → ring.OwnerSeq(key): the owning shard, then each successive ring
//	    owner as the failover sequence
//	  → first backend whose breaker admits gets the proxied request;
//	    transport errors and 502/503/504 replies count against its breaker
//	    and fall through to the next owner
//
// Reads (/jobs/{id}, /result, /stream, /trace, DELETE) route by the id in
// the path — the id IS the shard key, read with the worker's own {id}
// patterns — so a job's whole lifecycle lands on the worker that owns
// (and cached, and checkpointed) it. When that worker trips its breaker
// the same sequence re-routes reads to the next owner; a resubmission of
// the spec re-executes there and is byte-identical by construction, so
// failover needs no state handoff.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

// Error codes the router adds to the serve layer's envelope vocabulary.
const (
	// CodeShedRateLimit rejects a client exceeding its token bucket.
	CodeShedRateLimit = "shed_ratelimit"
	// CodeShedOverload rejects at high cluster utilization.
	CodeShedOverload = "shed_overload"
	// CodeNoBackend means every ring owner was tripped or unreachable.
	CodeNoBackend = "no_backend"
)

// maxBody bounds a proxied POST body (mirrors the serve layer's own cap).
const maxBody = 1 << 20

// RouterConfig wires a Router. Backends is required; everything else
// defaults sanely. The ring has DefaultReplicas vnodes per backend, and a
// request may try every ring owner in turn.
type RouterConfig struct {
	// Backends is the worker address list ("host:port"). The membership
	// set (not its order) determines placement.
	Backends []string
	// Admit tunes the admission stage.
	Admit AdmitConfig
	// Breaker tunes every backend's circuit breaker. OnTransition is
	// overridden by the router (it logs and emits events itself).
	Breaker BreakerConfig
	// Transport performs the proxied requests (default: a dedicated
	// http.Transport with per-backend keep-alive pools).
	Transport http.RoundTripper
	// Logger receives breaker transitions and shed/forward warnings. nil
	// discards.
	Logger *slog.Logger
	// Tracer mirrors breaker transitions as obs.KindAlert events (the
	// /events ring). nil disables.
	Tracer obs.Tracer
}

// Router is the cluster front-end. Create with NewRouter, mount with
// Handler.
type Router struct {
	ring     *Ring
	breakers []*Breaker
	// now is the router's clock: admission, breaker Allow and Record all
	// read it. time.Now outside this package's tests.
	now func() time.Time

	admit     *Admitter
	transport http.RoundTripper
	log       *slog.Logger
	tracer    obs.Tracer

	// Metric handles, resolved once in register; reg renders them on
	// /metrics and feeds the timeseries sampler.
	reg          *obs.Registry
	inflight     []*obs.Gauge // per-backend in-flight proxied requests
	total        *obs.Gauge   // cluster-wide in-flight proxied requests
	requests     *obs.Counter // proxied requests received (post-admission)
	submits      *obs.Counter // submissions received (pre-admission)
	submitsOK    *obs.Counter // submissions admitted
	forwarded    *obs.Counter // requests answered by some backend
	forwardErrs  *obs.Counter // attempts that failed (transport or 5xx gateway)
	failovers    *obs.Counter // requests answered by a non-primary owner
	noBackend    *obs.Counter // requests no backend could take
	perBackendOK []*obs.Counter
	perBackendKO []*obs.Counter

	scratch sync.Pool
}

// NewRouter validates cfg and builds the ring, breakers, and admitter.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	ring := NewRing(cfg.Backends, DefaultReplicas)
	if ring.Len() == 0 {
		return nil, errors.New("cluster: no usable backend addresses")
	}
	if ring.Len() > maskBackends {
		return nil, fmt.Errorf("cluster: %d backends exceed the supported %d", ring.Len(), maskBackends)
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
		}
	}
	rt := &Router{
		ring:      ring,
		breakers:  make([]*Breaker, ring.Len()),
		now:       time.Now,
		admit:     NewAdmitter(cfg.Admit),
		transport: transport,
		log:       log,
		tracer:    cfg.Tracer,
	}
	rt.scratch.New = func() any { return &routeScratch{seq: make([]int, 0, maskBackends)} }
	for i, addr := range ring.Backends() {
		bcfg := cfg.Breaker
		addr := addr
		bcfg.OnTransition = func(from, to BreakerState, now time.Time) {
			// Called with the breaker lock held: log and mirror, nothing more.
			level := slog.LevelWarn
			if to == BreakerClosed {
				level = slog.LevelInfo
			}
			rt.log.LogAttrs(context.Background(), level, "breaker state",
				slog.String("backend", addr),
				slog.String("from", from.String()), slog.String("to", to.String()))
			if rt.tracer != nil {
				rt.tracer.Trace(obs.Event{
					Kind: obs.KindAlert, Protocol: obs.ProtoCluster,
					Phase: addr + ":" + to.String(),
				})
			}
		}
		rt.breakers[i] = NewBreaker(bcfg)
	}
	rt.register()
	return rt, nil
}

// Ring returns the router's hash ring (immutable).
func (rt *Router) Ring() *Ring { return rt.ring }

type routeScratch struct{ seq []int }

// Handler builds the router's combined mux: the proxied jobs API under
// /api/v1 plus the introspection endpoints from httpserve (/metrics,
// /api/v1/timeseries, /api/v1/alerts, /events, /healthz, /readyz,
// pprof). An unset obsOpts.Registry is wired to the router's registry.
func (rt *Router) Handler(obsOpts httpserve.Options) http.Handler {
	if obsOpts.Registry == nil {
		obsOpts.Registry = rt.reg
	}
	jobs := serve.APIPrefix + "/jobs"
	mux := http.NewServeMux()
	mux.Handle("/", httpserve.NewHandler(obsOpts))
	mux.HandleFunc("POST "+jobs, rt.handleSubmit)
	mux.HandleFunc("GET "+jobs, rt.handleList)
	// The worker's own {id} patterns, so the shard key is the id the worker
	// reads: PathValue unescapes, and an escaped slash stays inside it.
	byID := func(w http.ResponseWriter, r *http.Request) { rt.forward(w, r, r.PathValue("id"), nil) }
	mux.HandleFunc(jobs+"/{id}", byID)
	mux.HandleFunc(jobs+"/{id}/{rest...}", byID)
	mux.HandleFunc(jobs+"/", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound, serve.CodeNotFound, "missing job id")
	})
	return mux
}

// handleSubmit runs admission, derives the shard key from the spec's
// content address, and proxies the submission to the owning shard.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.submits.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, serve.CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	client := req.Client
	if client == "" {
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			client = host
		} else {
			client = r.RemoteAddr
		}
	}
	bulk := req.Priority == serve.PriorityBulk
	dec := rt.admit.Admit(client, bulk, rt.total.Load(), rt.now())
	if !dec.OK {
		code := CodeShedOverload
		if dec.Reason == ShedRateLimit {
			code = CodeShedRateLimit
		}
		secs := int(dec.RetryAfter / time.Second)
		if dec.RetryAfter%time.Second != 0 || secs < 1 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		rt.log.Debug("submission shed",
			"client", client, "reason", dec.Reason, "retry_after_s", secs)
		serve.WriteError(w, http.StatusTooManyRequests, code,
			"cluster admission: "+dec.Reason+" — honor Retry-After")
		return
	}
	rt.submitsOK.Add(1)
	key, err := req.Spec.Key()
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
		return
	}
	rt.forward(w, r, key, body)
}

// handleList fans GET /jobs out to every non-open backend and merges the
// job arrays — the one read that has no single owning shard. Job objects
// pass through as the workers wrote them, so no status field is lost on
// the way.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	jobs := []json.RawMessage{}
	answered := false
	for i, addr := range rt.ring.Backends() {
		if rt.breakers[i].State() == BreakerOpen {
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			"http://"+addr+serve.APIPrefix+"/jobs", nil)
		if err != nil {
			continue
		}
		resp, err := rt.transport.RoundTrip(req)
		if err != nil {
			rt.breakers[i].recordPlain(rt.now(), false)
			continue
		}
		var out struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			jobs = append(jobs, out.Jobs...)
			answered = true
		}
	}
	if answered {
		rt.forwarded.Add(1)
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Jobs []json.RawMessage `json:"jobs"`
	}{Jobs: jobs})
}

// recordPlain feeds a non-probe outcome with the current generation —
// used by the list fan-out, which bypasses Allow.
func (b *Breaker) recordPlain(now time.Time, success bool) {
	b.mu.Lock()
	gen := b.gen
	b.mu.Unlock()
	b.Record(now, success, false, gen)
}

// forward proxies one request along key's owner sequence: the owning
// shard first, then each successive ring owner while earlier ones are
// tripped or fail the attempt. Every key therefore lives on its first
// healthy owner, so a job's reads reach the worker that holds it. A
// non-nil body replaces the (already consumed) request body on every
// attempt.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	rt.requests.Add(1)
	sc := rt.scratch.Get().(*routeScratch)
	defer rt.scratch.Put(sc)
	sc.seq = rt.ring.OwnerSeq(key, sc.seq)

	backends := rt.ring.Backends()
	for pos, bi := range sc.seq {
		ok, probe, gen := rt.breakers[bi].Allow(rt.now())
		if !ok {
			continue
		}
		rt.inflight[bi].Add(1)
		rt.total.Add(1)
		resp, err := rt.do(r, backends[bi], body)
		failed := err != nil || isGatewayFailure(resp.StatusCode)
		rt.breakers[bi].Record(rt.now(), !failed, probe, gen)
		if failed {
			rt.inflight[bi].Add(-1)
			rt.total.Add(-1)
			rt.forwardErrs.Add(1)
			rt.perBackendKO[bi].Add(1)
			detail := ""
			if err != nil {
				detail = err.Error()
			} else {
				detail = resp.Status
				resp.Body.Close()
			}
			rt.log.Warn("forward attempt failed",
				"backend", backends[bi], "path", r.URL.Path, "err", detail)
			continue
		}
		rt.perBackendOK[bi].Add(1)
		rt.forwarded.Add(1)
		if pos > 0 {
			rt.failovers.Add(1)
		}
		rt.relay(w, resp, backends[bi])
		rt.inflight[bi].Add(-1)
		rt.total.Add(-1)
		return
	}
	rt.noBackend.Add(1)
	w.Header().Set("Retry-After", "1")
	serve.WriteError(w, http.StatusServiceUnavailable, CodeNoBackend,
		"no healthy backend for this key — all ring owners tripped or unreachable")
}

// isGatewayFailure reports whether a backend reply should count against
// its breaker and fall through to the next owner. 502/503/504 are infra
// verdicts (draining, dead proxy hop); plain 4xx/5xx application answers
// — a failed job's 500, a 404, even 429 backpressure — are real answers
// from a live backend and pass through untouched.
func isGatewayFailure(status int) bool {
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do performs one proxied attempt against backend.
func (rt *Router) do(r *http.Request, backend string, body []byte) (*http.Response, error) {
	out := r.Clone(r.Context())
	out.URL.Scheme = "http"
	out.URL.Host = backend
	out.RequestURI = ""
	out.Host = ""
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	} else {
		out.Body = http.NoBody
		out.ContentLength = 0
	}
	return rt.transport.RoundTrip(out)
}

// relay copies the backend reply to the client, flushing after every
// chunk so streamed NDJSON bodies pass through live.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, backend string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	h.Set(serve.BackendHeader, backend)
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			rc.Flush() //nolint:errcheck // best-effort; ends with the conn
		}
		if err != nil {
			return
		}
	}
}

// --- metrics ------------------------------------------------------------

// register resolves the router's metric handles and adds its
// state-derived families to a fresh registry.
func (rt *Router) register() {
	reg := obs.NewRegistry()
	rt.reg = reg
	backends := rt.ring.Backends()
	reg.GaugeFunc("netags_cluster_backends", "Configured backend count.",
		func() float64 { return float64(rt.ring.Len()) })
	reg.GaugeFunc("netags_cluster_ring_vnodes", "Virtual nodes on the hash ring.",
		func() float64 { return float64(rt.ring.VNodes()) })
	rt.total = reg.Gauge("netags_cluster_inflight", "Proxied requests currently in flight.")
	reg.GaugeFunc("netags_cluster_breakers_open", "Backends whose breaker is not closed.",
		func() float64 { return float64(rt.OpenBreakers()) })
	rt.requests = reg.Counter("netags_cluster_requests_total", "Proxied requests received.")
	rt.submits = reg.Counter("netags_cluster_submits_total", "Submissions received (pre-admission).")
	rt.submitsOK = reg.Counter("netags_cluster_submits_admitted_total", "Submissions past admission control.")
	rt.forwarded = reg.Counter("netags_cluster_forwarded_total", "Requests answered by a backend.")
	rt.forwardErrs = reg.Counter("netags_cluster_forward_errors_total", "Proxy attempts that failed (transport error or 502/503/504).")
	rt.failovers = reg.Counter("netags_cluster_failovers_total", "Requests served by a non-primary ring owner.")
	rt.noBackend = reg.Counter("netags_cluster_no_backend_total", "Requests no backend could take.")
	reg.VecFunc("netags_cluster_shed_total", "Submissions rejected by admission control, by reason.", "counter",
		[]string{"reason"}, func(emit func(float64, ...string)) {
			st := rt.admit.Stats()
			emit(float64(st.ShedRateLimit), ShedRateLimit)
			emit(float64(st.ShedOverload), ShedOverload)
		})
	reg.GaugeFunc("netags_cluster_admit_clients", "Client token buckets tracked.",
		func() float64 { return float64(rt.admit.Stats().Clients) })
	reg.CounterFunc("netags_cluster_admit_overflow_total", "Submissions judged by the shared overflow bucket because the client table was full.",
		func() int64 { return rt.admit.Stats().OverflowHits })
	shares := rt.ring.Shares() // the ring never changes
	reg.VecFunc("netags_cluster_backend_keyspace_share", "Fraction of the hash ring each backend owns.", "gauge",
		[]string{"backend"}, func(emit func(float64, ...string)) {
			for i, addr := range backends {
				emit(shares[i], addr)
			}
		})
	reg.VecFunc("netags_cluster_breaker_state", "Breaker position per backend: 0 closed, 1 half-open, 2 open.", "gauge",
		[]string{"backend"}, func(emit func(float64, ...string)) {
			for i, addr := range backends {
				v := 0.0
				switch rt.breakers[i].State() {
				case BreakerHalfOpen:
					v = 1
				case BreakerOpen:
					v = 2
				}
				emit(v, addr)
			}
		})
	rt.inflight = perBackend(reg.GaugeVec("netags_cluster_backend_inflight", "In-flight proxied requests per backend.", "backend"), backends)
	rt.perBackendOK = perBackend(reg.CounterVec("netags_cluster_backend_requests_total", "Successful proxied requests per backend.", "backend"), backends)
	rt.perBackendKO = perBackend(reg.CounterVec("netags_cluster_backend_failures_total", "Failed proxy attempts per backend.", "backend"), backends)
	reg.VecFunc("netags_cluster_breaker_trips_total", "Breaker trips per backend.", "counter",
		[]string{"backend"}, func(emit func(float64, ...string)) {
			for i, addr := range backends {
				emit(float64(rt.breakers[i].Trips()), addr)
			}
		})
}

// perBackend resolves one child of a backend-labeled family per backend,
// indexed like the ring's backend list.
func perBackend[T any](vec *obs.Vec[T], backends []string) []*T {
	out := make([]*T, len(backends))
	for i, addr := range backends {
		out[i] = vec.With(addr)
	}
	return out
}

// Registry returns the router's metric registry — every cluster family,
// and the source the time-series sampler reads.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// RouterStatus is an in-process snapshot of counters that /metrics also
// serves, for Go programs that embed a Router.
type RouterStatus struct {
	Admission AdmitStats
	Counters  struct {
		Failovers, ForwardErrors, NoBackend int64
	}
}

// Status snapshots the admission and failover counters.
func (rt *Router) Status() RouterStatus {
	st := RouterStatus{Admission: rt.admit.Stats()}
	st.Counters.Failovers = rt.failovers.Load()
	st.Counters.ForwardErrors = rt.forwardErrs.Load()
	st.Counters.NoBackend = rt.noBackend.Load()
	return st
}

// OpenBreakers returns how many backends are currently tripped (open or
// half-open — either way their keyspace routes elsewhere first).
func (rt *Router) OpenBreakers() int {
	n := 0
	for _, b := range rt.breakers {
		if b.State() != BreakerClosed {
			n++
		}
	}
	return n
}
