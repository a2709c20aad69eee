package httpserve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"netags/internal/experiment"
	"netags/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServerLiveSweep is the acceptance test: a real sweep runs with the
// server's sinks attached, then /metrics parses as Prometheus exposition,
// /progress totals match the sweep grid, and /events returns the ring tail.
func TestServerLiveSweep(t *testing.T) {
	coll := obs.NewCollector()
	ring := obs.NewRing(64)
	observe, latest := experiment.TrackLatest(nil)
	ts := httptest.NewServer(NewHandler(Options{
		Collector: coll,
		Ring:      ring,
		Progress:  latest,
	}))
	defer ts.Close()

	cfg := experiment.Quick()
	cfg.N = 300
	cfg.Trials = 2
	cfg.RValues = []float64{6}
	cfg.Workers = 2
	cfg.Tracer = obs.Multi(coll, ring)
	total := len(cfg.RValues) * cfg.Trials
	if _, err := experiment.RunContext(context.Background(), cfg, observe); err != nil {
		t.Fatal(err)
	}

	// /metrics: valid exposition, with the sweep's sessions counted live.
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples := checkExposition(t, string(body))
	// 3 protocols × 2 trials, SICP and the two CCM runs each end a session.
	if samples["netags_sessions_total"] < 6 {
		t.Errorf("sessions_total = %g, want >= 6", samples["netags_sessions_total"])
	}
	if samples["netags_rounds_total"] <= 0 {
		t.Errorf("rounds_total = %g, want > 0", samples["netags_rounds_total"])
	}

	// /progress: the last event's totals match the grid, and it reads done.
	code, body = get(t, ts.URL+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var prog experiment.Progress
	if err := json.Unmarshal(body, &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog.Completed != total || prog.Total != total || prog.ETA() != 0 || prog.R != 6 {
		t.Errorf("/progress = %s, want %d/%d done at r=6", body, total, total)
	}

	// /events: the most recent ring contents, JSON-parseable, tail-limited.
	code, body = get(t, ts.URL+"/events?n=5")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	var evs struct {
		Total    uint64           `json:"total"`
		Returned int              `json:"returned"`
		Events   []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatalf("/events not JSON: %v\n%s", err, body)
	}
	if evs.Total != ring.Total() {
		t.Errorf("/events total = %d, ring saw %d", evs.Total, ring.Total())
	}
	if evs.Returned != 5 || len(evs.Events) != 5 {
		t.Errorf("/events returned %d/%d events, want 5", evs.Returned, len(evs.Events))
	}
	want := ring.Last(5)
	for i, ev := range evs.Events {
		if ev["kind"] != want[i].Kind.String() {
			t.Errorf("event %d kind = %v, ring has %s", i, ev["kind"], want[i].Kind)
		}
	}

	// /debug/pprof: the index responds.
	if code, _ := get(t, ts.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

func TestServerDisabledEndpoints(t *testing.T) {
	ts := httptest.NewServer(NewHandler(Options{}))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/events", "/progress"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s without a sink: status %d, want 404", path, code)
		}
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path served")
	}
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("index page: %d %q", code, body)
	}
}

// TestClusterEndpoint: a router's status lives on /metrics, its one
// status view: backend-labeled families render through the co-mounted
// registry.
func TestClusterEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	backends := []string{"10.0.0.1:9080", "10.0.0.2:9080"}
	perBackend := func(vals ...float64) func(emit func(float64, ...string)) {
		return func(emit func(float64, ...string)) {
			for i, b := range backends {
				emit(vals[i], b)
			}
		}
	}
	reg.VecFunc("netags_cluster_breaker_state", "Breaker position per backend.", "gauge",
		[]string{"backend"}, perBackend(0, 2))
	reg.VecFunc("netags_cluster_backend_keyspace_share", "Ring share per backend.", "gauge",
		[]string{"backend"}, perBackend(0.25, 0.75))
	reg.CounterFunc("netags_cluster_admit_overflow_total", "Overflow-bucket admissions.",
		func() int64 { return 3 })
	ts := httptest.NewServer(NewHandler(Options{Registry: reg}))
	defer ts.Close()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples := checkExposition(t, string(body))
	for series, want := range map[string]float64{
		`netags_cluster_breaker_state{backend="10.0.0.1:9080"}`:          0,
		`netags_cluster_breaker_state{backend="10.0.0.2:9080"}`:          2,
		`netags_cluster_backend_keyspace_share{backend="10.0.0.1:9080"}`: 0.25,
		`netags_cluster_backend_keyspace_share{backend="10.0.0.2:9080"}`: 0.75,
		"netags_cluster_admit_overflow_total":                            3,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

func TestServerEventsBadParam(t *testing.T) {
	ts := httptest.NewServer(NewHandler(Options{Ring: obs.NewRing(4)}))
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/events?n=x"); code != http.StatusBadRequest {
		t.Errorf("bad n accepted: %d", code)
	}
	code, body := get(t, ts.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	var evs struct {
		Events []any `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil || len(evs.Events) != 0 {
		t.Errorf("empty ring events = %s (err=%v)", body, err)
	}
}

// TestHealthAndReady: /healthz is unconditional, /readyz follows the Ready
// callback — 200 while accepting, 503 once the source flips (graceful
// drain), and 200 again if it recovers.
func TestHealthAndReady(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(NewHandler(Options{Ready: ready.Load}))
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("ready /readyz = %d %q, want 200 ok", code, body)
	}
	ready.Store(false)
	if code, body := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || string(body) != "draining\n" {
		t.Errorf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	// /healthz stays 200 through a drain: the process can still serve HTTP.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	ready.Store(true)
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("recovered /readyz = %d, want 200", code)
	}
}

// TestHealthReadyDefaults: with no Ready source both probes answer 200.
func TestHealthReadyDefaults(t *testing.T) {
	ts := httptest.NewServer(NewHandler(Options{}))
	defer ts.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("%s without Ready = %d, want 200", path, code)
		}
	}
}

// TestRegistryMetrics: a caller's registry renders beside the collector
// families, and a registry alone is enough to enable the endpoint.
func TestRegistryMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("netags_extra_total", "test.").Add(7)
	ts := httptest.NewServer(NewHandler(Options{
		Collector: obs.NewCollector(),
		Registry:  reg,
	}))
	defer ts.Close()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples := checkExposition(t, string(body))
	if samples["netags_extra_total"] != 7 {
		t.Errorf("registry family missing: %g", samples["netags_extra_total"])
	}
	if _, ok := samples["netags_sessions_total"]; !ok {
		t.Errorf("collector families missing alongside the registry's")
	}

	only := obs.NewRegistry()
	only.Counter("netags_extra_total", "test.").Add(7)
	ts2 := httptest.NewServer(NewHandler(Options{Registry: only}))
	defer ts2.Close()
	code, body = get(t, ts2.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics with only a registry: status %d", code)
	}
	if samples := checkExposition(t, string(body)); samples["netags_extra_total"] != 7 {
		t.Errorf("registry-only metrics body wrong: %s", body)
	}
}

// TestStartServesAndCloses exercises the real listener path the CLIs use.
func TestStartServesAndCloses(t *testing.T) {
	coll := obs.NewCollector()
	s, err := Start("127.0.0.1:0", Options{Collector: coll})
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracer() == nil {
		t.Fatal("server with a collector must expose a tracer")
	}
	s.Tracer().Trace(obs.Event{Kind: obs.KindSessionEnd, Rounds: 1})
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics over TCP: status %d", code)
	}
	if samples := checkExposition(t, string(body)); samples["netags_sessions_total"] != 1 {
		t.Errorf("live session not visible: %g", samples["netags_sessions_total"])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}

// TestNilServer: the nil receiver contract the CLIs rely on when -http is
// unset — every method no-ops and Tracer() preserves the nil fast path.
func TestNilServer(t *testing.T) {
	var s *Server
	if s.Tracer() != nil {
		t.Error("nil server must yield a nil tracer")
	}
	if s.Addr() != "" {
		t.Error("nil server has an address")
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
