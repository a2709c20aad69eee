package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netags/internal/experiment"
	"netags/internal/obs/httpserve"
)

func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewHandler(m, httpserve.Options{}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return ts, m
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestE2EExactlyOnce is the PR's acceptance test: two concurrent
// submissions of semantically identical specs (different JSON shapes —
// field order, explicit defaults) execute the sweep exactly once and both
// resolve to byte-identical result JSON, bit-identical to running the
// experiment layer directly. A third submission is a pure cache hit, and
// the hit/dedup/executed counters surface in /metrics.
func TestE2EExactlyOnce(t *testing.T) {
	spec := JobSpec{N: 150, Trials: 1, RValues: []float64{4, 6}, Seed: 3}
	direct, err := runSpec(context.Background(), spec, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Real execution, instrumented: count entries and hold the first run at
	// a gate so the second POST provably lands inside the singleflight
	// window.
	var execs int
	var execMu sync.Mutex
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context, s JobSpec, workers int, h runHooks) error {
		execMu.Lock()
		execs++
		execMu.Unlock()
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		return runSpecHooked(ctx, s, workers, h)
	}
	ts, _ := newTestServer(t, Config{Workers: 2, run: run})

	// Submission A: minimal spec, defaults implied, versioned path.
	bodyA := `{"spec":{"n":150,"trials":1,"r_values":[4,6],"seed":3}}`
	respA, rawA := postJSON(t, ts.URL+"/api/v1/jobs", bodyA)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("POST A = %d: %s", respA.StatusCode, rawA)
	}
	var subA SubmitResponse
	if err := json.Unmarshal(rawA, &subA); err != nil {
		t.Fatal(err)
	}
	<-started // A is executing and blocked at the gate

	// Submission B: same job, different field order, defaults explicit,
	// axis reversed, protocols reordered with a duplicate — must land on the
	// same job.
	bodyB := `{"spec":{"seed":3,"r_values":[6,4],"radius":30,"sweep":"range",
		"protocols":["TRP-CCM","SICP","GMLE-CCM","SICP"],"trials":1,"n":150}}`
	respB, rawB := postJSON(t, ts.URL+"/api/v1/jobs", bodyB)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("POST B = %d: %s", respB.StatusCode, rawB)
	}
	var subB SubmitResponse
	if err := json.Unmarshal(rawB, &subB); err != nil {
		t.Fatal(err)
	}
	if subB.ID != subA.ID {
		t.Fatalf("semantically identical specs got different jobs: %s vs %s", subA.ID, subB.ID)
	}
	if subB.Status != OutcomeRunning {
		t.Errorf("concurrent duplicate outcome = %s, want running (joined in-flight)", subB.Status)
	}

	close(release)
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := cl.Await(ctx, subA.ID, nil)
	if err != nil || final.State != StateDone {
		t.Fatalf("wait = %+v, %v", final, err)
	}

	execMu.Lock()
	gotExecs := execs
	execMu.Unlock()
	if gotExecs != 1 {
		t.Fatalf("sweep executed %d times, want exactly once", gotExecs)
	}

	// Both submissions resolve to byte-identical JSON, and those bytes are
	// bit-identical to the direct experiment-layer run.
	res1, err := cl.Result(ctx, subA.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cl.Result(ctx, subB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, res2) {
		t.Error("concurrent submissions returned different bytes")
	}
	if !bytes.Equal(res1, direct) {
		t.Errorf("service result differs from direct run:\n%s\nvs\n%s", res1, direct)
	}

	// Third submission: settled now, so a pure cache hit (HTTP 200, no
	// third execution).
	respC, rawC := postJSON(t, ts.URL+"/api/v1/jobs", bodyA)
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("POST C = %d: %s", respC.StatusCode, rawC)
	}
	var subC SubmitResponse
	if err := json.Unmarshal(rawC, &subC); err != nil {
		t.Fatal(err)
	}
	if subC.Status != OutcomeCached || subC.ID != subA.ID {
		t.Errorf("third submission = %s/%s, want cached/%s", subC.Status, subC.ID, subA.ID)
	}
	execMu.Lock()
	gotExecs = execs
	execMu.Unlock()
	if gotExecs != 1 {
		t.Fatalf("cache hit re-executed the sweep (execs = %d)", gotExecs)
	}

	// The counters are visible on /metrics alongside the PR 4 families.
	code, metrics := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"netags_serve_cache_hits_total 1",
		"netags_serve_jobs_executed_total 1",
		"netags_serve_jobs_deduplicated_total 1",
		"netags_serve_cache_evictions_total 0",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPJobLifecycle drives the status/list/result endpoints through the
// Client helper against a real tiny sweep.
func TestHTTPJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{50, 100}}, SubmitOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || len(sub.ID) != 64 {
		t.Fatalf("bad job id %q", sub.ID)
	}
	if _, err := cl.Await(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := cl.do(ctx, http.MethodGet, "/jobs", nil, &list, http.StatusOK); err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("GET /jobs = %+v, %v", list.Jobs, err)
	}
	payload, err := cl.Result(ctx, sub.ID)
	if err != nil || payload == nil {
		t.Fatalf("Result = %v, %v", payload, err)
	}
	var decoded struct {
		Key  string  `json:"key"`
		Spec JobSpec `json:"spec"`
		Rows []struct {
			N int `json:"n"`
		} `json:"density_rows"`
	}
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatalf("result payload is not JSON: %v\n%s", err, payload)
	}
	if decoded.Key != sub.ID || len(decoded.Rows) != 2 {
		t.Errorf("payload = key %s, %d rows", decoded.Key, len(decoded.Rows))
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, run: stubRun(nil, nil)})

	resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	resp, raw := postJSON(t, ts.URL+"/api/v1/jobs", `{"spec":{"n":300}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec = %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != CodeBadRequest || env.Error.Message == "" {
		t.Errorf("error reply not the envelope: %s", raw)
	}

	// An invalid priority is rejected up front, same envelope.
	resp, raw = postJSON(t, ts.URL+"/api/v1/jobs",
		`{"spec":{"n":150,"trials":1,"r_values":[6]},"priority":"urgent"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "priority") {
		t.Errorf("bad priority = %d %s, want 400 mentioning priority", resp.StatusCode, raw)
	}

	unknown := ts.URL + "/api/v1/jobs/" + strings.Repeat("0", 64)
	if code, raw := getBody(t, unknown); code != http.StatusNotFound || !strings.Contains(string(raw), CodeNotFound) {
		t.Errorf("unknown job = %d %s, want 404 envelope", code, raw)
	}
	if code, _ := getBody(t, unknown+"/result"); code != http.StatusNotFound {
		t.Errorf("unknown result = %d, want 404", code)
	}
	if code, _ := getBody(t, unknown+"/stream"); code != http.StatusNotFound {
		t.Errorf("unknown stream = %d, want 404", code)
	}
}

// TestHTTPBackpressure: a full queue answers 429 with a Retry-After hint,
// via the typed client error.
func TestHTTPBackpressure(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, run: stubRun(nil, gate)})
	cl := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	var busy *ErrBusy
	for i := 0; i < 8; i++ {
		_, err := cl.Submit(ctx, testSpec(i), SubmitOptions{})
		if err != nil {
			if !errors.As(err, &busy) {
				t.Fatalf("unexpected error type: %v", err)
			}
			break
		}
	}
	if busy == nil {
		t.Fatal("queue never filled")
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("ErrBusy.RetryAfter = %v, want a positive backoff from Retry-After", busy.RetryAfter)
	}
}

// TestHTTPCancelAndResultStates: DELETE cancels; /result reports 202 while
// pending and 409 after cancellation.
func TestHTTPCancelAndResultStates(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	ts, m := newTestServer(t, Config{Workers: 1, QueueDepth: 4, run: stubRun(nil, gate)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	blocker, err := cl.Submit(ctx, testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)
	queued, err := cl.Submit(ctx, testSpec(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Pending result → 202 with the status body; the client maps that to
	// (nil, nil).
	payload, err := cl.Result(ctx, queued.ID)
	if err != nil || payload != nil {
		t.Fatalf("pending result = %q, %v, want nil, nil", payload, err)
	}

	var st JobStatus
	if err := cl.do(ctx, http.MethodDelete, "/jobs/"+queued.ID, nil, &st, http.StatusOK); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel = %+v, %v", st, err)
	}
	if _, err := cl.Result(ctx, queued.ID); err == nil {
		t.Fatal("result of canceled job did not error")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != CodeConflict {
			t.Errorf("canceled result error = %v, want 409/%s", err, CodeConflict)
		}
	}
}

// TestHTTPReadinessDuringDrain: /readyz flips to 503 once the manager
// starts draining, while /healthz stays 200; new submissions get 503.
func TestHTTPReadinessDuringDrain(t *testing.T) {
	m := NewManager(Config{Workers: 1, run: stubRun(nil, nil)})
	ts := httptest.NewServer(NewHandler(m, httpserve.Options{}))
	defer ts.Close()

	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", code)
	}
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", `{"spec":{"n":150,"trials":1,"r_values":[6]}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPMetricsAndIntrospection: the introspection endpoints stay
// mounted on the combined mux, and the job list carries a running job's
// live progress.
func TestHTTPMetricsAndIntrospection(t *testing.T) {
	gate := make(chan struct{})
	ts, m := newTestServer(t, Config{Workers: 1, run: stubRun(nil, gate)})
	sub, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, sub.ID)

	code, raw := getBody(t, ts.URL+"/api/v1/jobs")
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); code != http.StatusOK || err != nil || len(list.Jobs) != 1 {
		t.Fatalf("/api/v1/jobs = %d, %s", code, raw)
	}
	total := testSpec(0).PointCount() * testSpec(0).Trials
	if st := list.Jobs[0]; st.ID != sub.ID || st.State != StateRunning || st.Progress == nil ||
		st.Progress.Completed != 1 || st.Progress.Total != total {
		t.Errorf("running job's status lacks its live progress: %s", raw)
	}
	code, raw = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(raw), "netags_serve_jobs_running 1") {
		t.Errorf("/metrics = %d missing running gauge:\n%s", code, raw)
	}
	close(gate)
}
