package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

// stubBackend is a fake worker that records hits and answers with a
// configurable status; its body echoes the backend's tag so tests can see
// who answered.
type stubBackend struct {
	*httptest.Server
	tag    string
	hits   atomic.Int64
	status atomic.Int32 // response status; 0 means 200
	closed atomic.Bool
}

func newStubBackend(tag string) *stubBackend {
	sb := &stubBackend{tag: tag}
	sb.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb.hits.Add(1)
		code := int(sb.status.Load())
		if code == 0 {
			code = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"backend":%q,"path":%q}`, sb.tag, r.URL.Path)
	}))
	return sb
}

func (sb *stubBackend) addr() string { return sb.Listener.Addr().String() }

func newTestRouter(t *testing.T, cfg RouterConfig, backends ...*stubBackend) (*Router, *httptest.Server) {
	t.Helper()
	for _, sb := range backends {
		cfg.Backends = append(cfg.Backends, sb.addr())
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler(httpserve.Options{}))
	t.Cleanup(srv.Close)
	return rt, srv
}

func submitBody(t *testing.T, seed uint64) ([]byte, string) {
	t.Helper()
	spec := serve.JobSpec{N: 100, Trials: 1, RValues: []float64{6}, Seed: seed}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(serve.SubmitRequest{Spec: spec, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b, key
}

func postJobs(t *testing.T, base string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRouterRoutesByContentAddress(t *testing.T) {
	b1, b2, b3 := newStubBackend("w1"), newStubBackend("w2"), newStubBackend("w3")
	defer b1.Close()
	defer b2.Close()
	defer b3.Close()
	rt, srv := newTestRouter(t, RouterConfig{}, b1, b2, b3)

	stubs := map[string]*stubBackend{b1.addr(): b1, b2.addr(): b2, b3.addr(): b3}
	for seed := uint64(0); seed < 8; seed++ {
		body, key := submitBody(t, seed)
		wantAddr := rt.Ring().Backends()[rt.Ring().Owner(key)]

		resp := postJobs(t, srv.URL, body)
		var got struct {
			Backend string `json:"backend"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, resp.StatusCode)
		}
		if got.Backend != stubs[wantAddr].tag {
			t.Fatalf("seed %d: answered by %s, ring owner is %s", seed, got.Backend, stubs[wantAddr].tag)
		}
		if hdr := resp.Header.Get(serve.BackendHeader); hdr != wantAddr {
			t.Fatalf("seed %d: %s header %q, want %q", seed, serve.BackendHeader, hdr, wantAddr)
		}

		// Reads for the same id land on the same shard (the id IS the key).
		getResp, err := http.Get(srv.URL + "/api/v1/jobs/" + key + "/result")
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if hdr := getResp.Header.Get(serve.BackendHeader); hdr != wantAddr {
			t.Fatalf("seed %d: read routed to %q, submit to %q", seed, hdr, wantAddr)
		}
	}
}

func TestRouterFailoverToNextOwner(t *testing.T) {
	b1, b2, b3 := newStubBackend("w1"), newStubBackend("w2"), newStubBackend("w3")
	defer b2.Close()
	defer b3.Close()
	rt, srv := newTestRouter(t, RouterConfig{}, b1, b2, b3)

	// Find a key whose primary owner is b1, then kill b1.
	var body []byte
	var key string
	for seed := uint64(0); ; seed++ {
		body, key = submitBody(t, seed)
		if rt.Ring().Backends()[rt.Ring().Owner(key)] == b1.addr() {
			break
		}
	}
	seq := rt.Ring().OwnerSeq(key, nil)
	wantNext := rt.Ring().Backends()[seq[1]]
	b1.Close()
	b1.closed.Store(true)

	resp := postJobs(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after failover, want 200", resp.StatusCode)
	}
	if hdr := resp.Header.Get(serve.BackendHeader); hdr != wantNext {
		t.Fatalf("failover landed on %q, want next ring owner %q", hdr, wantNext)
	}
	st := rt.Status()
	if st.Counters.Failovers != 1 || st.Counters.ForwardErrors != 1 {
		t.Fatalf("counters %+v, want 1 failover + 1 forward error", st.Counters)
	}
}

func TestRouterBreakerTripsAndSkipsDeadBackend(t *testing.T) {
	b1, b2 := newStubBackend("w1"), newStubBackend("w2")
	defer b1.Close()
	defer b2.Close()
	rt, srv := newTestRouter(t, RouterConfig{
		Breaker: BreakerConfig{ConsecutiveFailures: 2, Cooldown: time.Hour},
	}, b1, b2)

	// b1 answers 503 (draining): a gateway failure that trips its breaker.
	b1.status.Store(http.StatusServiceUnavailable)
	var deadIdx int
	for i, addr := range rt.Ring().Backends() {
		if addr == b1.addr() {
			deadIdx = i
		}
	}
	// Drive submissions owned by b1 until the breaker trips.
	tripped := false
	for seed := uint64(0); seed < 64 && !tripped; seed++ {
		body, key := submitBody(t, seed)
		if rt.Ring().Owner(key) != deadIdx {
			continue
		}
		resp := postJobs(t, srv.URL, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d (should have failed over)", seed, resp.StatusCode)
		}
		tripped = rt.breakers[deadIdx].State() == BreakerOpen
	}
	if !tripped {
		t.Fatal("breaker never tripped")
	}

	// With the breaker open, b1 is skipped outright: no new hits.
	before := b1.hits.Load()
	for seed := uint64(0); seed < 16; seed++ {
		body, _ := submitBody(t, 1000+seed)
		resp := postJobs(t, srv.URL, body)
		resp.Body.Close()
	}
	if got := b1.hits.Load(); got != before {
		t.Fatalf("open breaker leaked %d requests to the dead backend", got-before)
	}
	if rt.OpenBreakers() != 1 {
		t.Fatalf("OpenBreakers = %d, want 1", rt.OpenBreakers())
	}
}

func TestRouterBreakerRecovery(t *testing.T) {
	b1, b2 := newStubBackend("w1"), newStubBackend("w2")
	defer b1.Close()
	defer b2.Close()
	rt, err := NewRouter(RouterConfig{
		Backends: []string{b1.addr(), b2.addr()},
		Breaker:  BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newHandClock()
	rt.now = clk.now
	srv := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer srv.Close()

	var deadIdx int
	for i, addr := range rt.Ring().Backends() {
		if addr == b1.addr() {
			deadIdx = i
		}
	}
	b1.status.Store(http.StatusServiceUnavailable)
	var body []byte
	for seed := uint64(0); ; seed++ {
		var key string
		body, key = submitBody(t, seed)
		if rt.Ring().Owner(key) == deadIdx {
			break
		}
	}
	post := func() string {
		t.Helper()
		resp := postJobs(t, srv.URL, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		return resp.Header.Get(serve.BackendHeader)
	}
	post()
	if rt.breakers[deadIdx].State() != BreakerOpen {
		t.Fatal("breaker did not trip")
	}

	// The backend heals, but until the cooldown has passed its keyspace
	// stays on the next owner.
	b1.status.Store(0)
	hits := b1.hits.Load()
	if got := post(); got != b2.addr() || b1.hits.Load() != hits {
		t.Fatalf("open breaker in cooldown: answered by %s, %d new hits on the healed backend",
			got, b1.hits.Load()-hits)
	}

	// Past the cooldown each submission is one probe to the healed
	// backend, and probesToClose of them close the breaker.
	clk.advance(time.Minute)
	for i := 0; i < probesToClose; i++ {
		if st := rt.breakers[deadIdx].State(); st == BreakerClosed {
			t.Fatalf("closed after %d of %d probe successes", i, probesToClose)
		}
		if got := post(); got != b1.addr() {
			t.Fatalf("probe %d answered by %s, want the healed %s", i, got, b1.addr())
		}
	}
	if st := rt.breakers[deadIdx].State(); st != BreakerClosed {
		t.Fatalf("breaker %s after %d probe successes, want closed", st, probesToClose)
	}
}

// handClock is a hand-advanced clock the router's handler goroutines can
// read while the test advances it.
type handClock struct{ ns atomic.Int64 }

func newHandClock() *handClock {
	c := &handClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *handClock) now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *handClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestRouterMaxInflightCountsStreams pins what -max-inflight bounds: every
// proxied request in flight, so one NDJSON stream held open fills a
// MaxInflight of 1 and the next submission sheds as overload.
func TestRouterMaxInflightCountsStreams(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			close(arrived)
			<-release
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer backend.Close()
	u, _ := url.Parse(backend.URL)
	rt, err := NewRouter(RouterConfig{Backends: []string{u.Host}, Admit: AdmitConfig{MaxInflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer front.Close()

	body, key := submitBody(t, 7)
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		resp, err := http.Get(front.URL + "/api/v1/jobs/" + key + "/stream")
		if err == nil {
			resp.Body.Close()
		}
	}()
	// End the stream before front.Close, which waits for its connection.
	defer func() { close(release); <-streamed }()
	<-arrived

	resp := postJobs(t, front.URL, body)
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != CodeShedOverload {
		t.Fatalf("submit with one stream open: %d %q, want 429 %q",
			resp.StatusCode, env.Error.Code, CodeShedOverload)
	}
}

func TestRouterAdmissionShedsWithRetryAfter(t *testing.T) {
	b1 := newStubBackend("w1")
	defer b1.Close()
	_, srv := newTestRouter(t, RouterConfig{
		Admit: AdmitConfig{Rate: 0.001, Burst: 1},
	}, b1)

	body, _ := submitBody(t, 1)
	resp := postJobs(t, srv.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	resp = postJobs(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeShedRateLimit {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeShedRateLimit)
	}
}

func TestRouterShedMapsToClientErrBusy(t *testing.T) {
	b1 := newStubBackend("w1")
	defer b1.Close()
	_, srv := newTestRouter(t, RouterConfig{
		Admit: AdmitConfig{Rate: 0.001, Burst: 1},
	}, b1)

	cl := &serve.Client{BaseURL: srv.URL}
	ctx := context.Background()
	spec := serve.JobSpec{N: 100, Trials: 1, RValues: []float64{6}}
	if _, err := cl.Submit(ctx, spec, serve.SubmitOptions{}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := cl.Submit(ctx, spec, serve.SubmitOptions{})
	var busy *serve.ErrBusy
	if !errors.As(err, &busy) {
		t.Fatalf("router shed surfaced as %T %v, want *serve.ErrBusy", err, err)
	}
	if busy.RetryAfter < time.Second {
		t.Fatalf("ErrBusy.RetryAfter = %s, want >= 1s", busy.RetryAfter)
	}
}

func TestRouterNoBackendAvailable(t *testing.T) {
	b1 := newStubBackend("w1")
	rt, srv := newTestRouter(t, RouterConfig{
		Breaker: BreakerConfig{ConsecutiveFailures: 1, Cooldown: time.Hour},
	}, b1)
	b1.Close()

	body, _ := submitBody(t, 1)
	// First submit fails through to exhaustion and trips the breaker.
	resp := postJobs(t, srv.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	// Second is refused by the open breaker without an attempt.
	resp = postJobs(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-backend 503 missing Retry-After")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeNoBackend {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeNoBackend)
	}
	if rt.Status().Counters.NoBackend == 0 {
		t.Fatal("no_backend counter did not move")
	}
}

func TestRouterBadSubmitBody(t *testing.T) {
	b1 := newStubBackend("w1")
	defer b1.Close()
	_, srv := newTestRouter(t, RouterConfig{}, b1)
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if b1.hits.Load() != 0 {
		t.Fatal("malformed submit reached a backend")
	}
}

// TestRouterClusterStatusEndpoint: /metrics is the router's one status
// view, and it carries every per-backend, ring, admission and router
// number.
func TestRouterClusterStatusEndpoint(t *testing.T) {
	b1, b2 := newStubBackend("w1"), newStubBackend("w2")
	defer b1.Close()
	defer b2.Close()
	_, srv := newTestRouter(t, RouterConfig{}, b1, b2)

	body, _ := submitBody(t, 1)
	resp := postJobs(t, srv.URL, body)
	resp.Body.Close()

	series := scrape(t, srv.URL)
	for name, want := range map[string]float64{
		"netags_cluster_backends":                       2,
		"netags_cluster_ring_vnodes":                    2 * DefaultReplicas,
		"netags_cluster_breakers_open":                  0,
		"netags_cluster_requests_total":                 1,
		"netags_cluster_submits_total":                  1,
		"netags_cluster_submits_admitted_total":         1,
		"netags_cluster_forwarded_total":                1,
		"netags_cluster_forward_errors_total":           0,
		"netags_cluster_failovers_total":                0,
		"netags_cluster_no_backend_total":               0,
		`netags_cluster_shed_total{reason="ratelimit"}`: 0,
		`netags_cluster_shed_total{reason="overload"}`:  0,
		"netags_cluster_admit_clients":                  0,
		"netags_cluster_admit_overflow_total":           0,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// In-flight counts drop only after the relay returns, which can trail
	// the client's read: check presence, not value.
	if _, ok := series["netags_cluster_inflight"]; !ok {
		t.Error("netags_cluster_inflight missing")
	}
	share, requests := 0.0, 0.0
	for _, sb := range []*stubBackend{b1, b2} {
		label := `{backend="` + sb.addr() + `"}`
		for _, family := range []string{
			"netags_cluster_breaker_state", "netags_cluster_breaker_trips_total",
			"netags_cluster_backend_failures_total",
		} {
			if got, ok := series[family+label]; !ok || got != 0 {
				t.Errorf("%s%s = %v (present %v), want 0", family, label, got, ok)
			}
		}
		if _, ok := series["netags_cluster_backend_inflight"+label]; !ok {
			t.Errorf("netags_cluster_backend_inflight%s missing", label)
		}
		requests += series["netags_cluster_backend_requests_total"+label]
		share += series["netags_cluster_backend_keyspace_share"+label]
	}
	if requests != 1 {
		t.Errorf("per-backend requests sum to %v, want 1", requests)
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("keyspace shares sum to %.4f", share)
	}
}

// scrape reads base's /metrics into a map from series (name plus labels,
// as rendered) to value.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestRouterMetricsExposition(t *testing.T) {
	b1 := newStubBackend("w1")
	defer b1.Close()
	_, srv := newTestRouter(t, RouterConfig{}, b1)
	body, _ := submitBody(t, 1)
	resp := postJobs(t, srv.URL, body)
	resp.Body.Close()

	mResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mResp.Body)
	out := buf.String()
	for _, family := range []string{
		"netags_cluster_backends 1",
		"netags_cluster_submits_total 1",
		"netags_cluster_forwarded_total 1",
		"netags_cluster_breakers_open 0",
		"netags_cluster_breaker_state{backend=",
		"netags_cluster_shed_total{reason=\"ratelimit\"} 0",
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("/metrics missing %q in:\n%s", family, out)
		}
	}
}

func TestRouterListFanOutMerges(t *testing.T) {
	mkListBackend := func(jobs string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"jobs":%s}`, jobs)
		}))
	}
	s1 := mkListBackend(`[{"id":"aaa"},{"id":"bbb"}]`)
	s2 := mkListBackend(`[{"id":"ccc"}]`)
	defer s1.Close()
	defer s2.Close()
	u1, _ := url.Parse(s1.URL)
	u2, _ := url.Parse(s2.URL)
	rt, err := NewRouter(RouterConfig{Backends: []string{u1.Host, u2.Host}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("merged %d jobs, want 3", len(out.Jobs))
	}
}

// pointGate is a tracer that holds the sweep of the first job point to
// complete until released, so a running job's status stands still.
type pointGate struct {
	once     sync.Once
	reached  chan struct{}
	release  chan struct{}
	released sync.Once
}

func (g *pointGate) Trace(ev obs.Event) {
	if ev.Kind == obs.KindJob && ev.Phase == serve.StagePointCompleted {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
}

func (g *pointGate) open() { g.released.Do(func() { close(g.release) }) }

// TestRouterListKeepsProgress: the router's job list passes each worker's
// job objects through whole, so a running job's progress, with its
// sweep_elapsed_ms and eta_ms, reads the same on the worker and the router.
func TestRouterListKeepsProgress(t *testing.T) {
	gate := &pointGate{reached: make(chan struct{}), release: make(chan struct{})}
	m := serve.NewManager(serve.Config{Workers: 1, JobWorkers: 1, Tracer: gate})
	worker, err := serve.StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	defer gate.open() // release the sweep before the worker drains
	rt, err := NewRouter(RouterConfig{Backends: []string{worker.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := &serve.Client{BaseURL: front.URL}
	spec := serve.JobSpec{N: 100, Trials: 2, RValues: []float64{4, 6}, Seed: 3}
	if _, err := cl.Submit(ctx, spec, serve.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.reached:
	case <-ctx.Done():
		t.Fatal("the job's first point never completed")
	}

	progress := func(base string) json.RawMessage {
		t.Helper()
		resp, err := http.Get(base + serve.APIPrefix + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Jobs []struct {
				State    serve.JobState  `json:"state"`
				Progress json.RawMessage `json:"progress"`
			} `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Jobs) != 1 {
			t.Fatalf("%s job list: %v, %+v", base, err, out)
		}
		if out.Jobs[0].State != serve.StateRunning {
			t.Fatalf("%s lists the job as %s, want running", base, out.Jobs[0].State)
		}
		return out.Jobs[0].Progress
	}
	direct, routed := progress("http://"+worker.Addr()), progress(front.URL)
	if !bytes.Equal(direct, routed) {
		t.Errorf("progress differs:\nworker %s\nrouter %s", direct, routed)
	}
	var fields map[string]any
	if err := json.Unmarshal(routed, &fields); err != nil {
		t.Fatalf("routed progress %s: %v", routed, err)
	}
	for _, key := range []string{"sweep_elapsed_ms", "eta_ms"} {
		if v, _ := fields[key].(float64); v <= 0 {
			t.Errorf("routed progress %s: %s = %v, want > 0", routed, key, fields[key])
		}
	}
}

// TestRouterEndToEndRealWorkers proxies a real submission through to real
// serve managers and byte-compares the result against a direct run — the
// in-process version of scripts/cluster_e2e.sh's identity check.
func TestRouterEndToEndRealWorkers(t *testing.T) {
	var workers []string
	for i := 0; i < 2; i++ {
		m := serve.NewManager(serve.Config{Workers: 1})
		srv, err := serve.StartServer("127.0.0.1:0", m, httpserve.Options{}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		workers = append(workers, srv.Addr())
	}
	rt, err := NewRouter(RouterConfig{Backends: workers})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := serve.JobSpec{N: 100, Trials: 1, RValues: []float64{6}, Seed: 11}

	// Direct single-node reference.
	ref := serve.NewManager(serve.Config{Workers: 1})
	refSrv, err := serve.StartServer("127.0.0.1:0", ref, httpserve.Options{}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	refCl := &serve.Client{BaseURL: "http://" + refSrv.Addr()}
	refSub, err := refCl.Submit(ctx, spec, serve.SubmitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refCl.Await(ctx, refSub.ID, nil); err != nil {
		t.Fatal(err)
	}
	want, err := refCl.Result(ctx, refSub.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Same spec through the router: submit, await over the proxied stream,
	// fetch the proxied result.
	cl := &serve.Client{BaseURL: front.URL}
	sub, err := cl.Submit(ctx, spec, serve.SubmitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != refSub.ID {
		t.Fatalf("content address differs across paths: %s vs %s", sub.ID, refSub.ID)
	}
	points := 0
	if _, err := cl.Await(ctx, sub.ID, func(serve.PointRecord) { points++ }); err != nil {
		t.Fatalf("await through router: %v", err)
	}
	if points == 0 {
		t.Fatal("proxied stream delivered no points")
	}
	got, err := cl.Result(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("routed result differs from single-node reference:\n%s\nvs\n%s", got, want)
	}
}

// TestRouterReadsFollowTheirJob: a job's reads reach the worker that ran
// its submission even while that worker is busier than its peers. One
// request is held in flight on key K's owner; K is then submitted, the
// held request released, and K read back. A router that spilled busy
// owners' traffic to the next ring owner placed the job on one worker and
// sent the read to another, which answered 404. The test guards against
// such spilling coming back: with no load bound in the config it also
// passes on a router that spilled only when one was set.
func TestRouterReadsFollowTheirJob(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var workers []string
	for i := 0; i < 3; i++ {
		m := serve.NewManager(serve.Config{Workers: 1})
		h := serve.NewHandler(m, httpserve.Options{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Test-Hold") != "" {
				arrived <- struct{}{}
				<-release
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			srv.Close()
			m.Shutdown(context.Background())
		})
		workers = append(workers, srv.Listener.Addr().String())
	}
	rt, err := NewRouter(RouterConfig{Backends: workers})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler(httpserve.Options{}))
	defer front.Close()
	body, key := submitBody(t, 42)

	held := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/api/v1/jobs/"+key, nil)
		req.Header.Set("X-Test-Hold", "1")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		held <- err
	}()
	<-arrived // K's owner now has one request in flight

	resp := postJobs(t, front.URL, body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	get, err := http.Get(front.URL + "/api/v1/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("read of the submitted job = %d, want 200", get.StatusCode)
	}
}
