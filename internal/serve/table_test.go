package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
)

// getCode issues GET path against srv and returns the status code and body.
func getCode(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// gauge scrapes /metrics for one unlabeled family's value.
func gauge(t *testing.T, srv *httptest.Server, name string) float64 {
	t.Helper()
	_, body := getCode(t, srv, "/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, body)
	return 0
}

// TestRejectionsLeaveNoState: submissions bounced by a full queue are
// never admitted, so they create no checkpoint state and no timeline, and
// cannot push an admitted job's timeline out. They still reach the Tracer.
func TestRejectionsLeaveNoState(t *testing.T) {
	gate := make(chan struct{})
	ring := obs.NewRing(64)
	m := NewManager(Config{Workers: 1, QueueDepth: 1, Tracer: ring, run: stubRun(nil, gate)})
	defer func() { close(gate); m.Shutdown(context.Background()) }()
	srv := httptest.NewServer(NewHandler(m, httpserve.Options{}))
	defer srv.Close()

	running, _, err := m.Submit(testSpec(0), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)
	if _, _, err := m.Submit(testSpec(1), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	var lastKey string
	for i := 2; i < 1100; i++ {
		spec := testSpec(i)
		if _, _, err := m.Submit(spec, SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submission %d = %v, want ErrQueueFull", i, err)
		}
		lastKey, _ = spec.Normalized().Key()
	}

	if got := gauge(t, srv, "netags_serve_checkpoint_jobs"); got > 2 {
		t.Errorf("netags_serve_checkpoint_jobs = %v after rejections, want <= 2", got)
	}
	if got := gauge(t, srv, "netags_serve_jobs_retained"); got != 2 {
		t.Errorf("netags_serve_jobs_retained = %v, want 2", got)
	}
	if code, body := getCode(t, srv, "/api/v1/jobs/"+running.ID+"/trace"); code != http.StatusOK {
		t.Errorf("running job's /trace = %d %s, want 200", code, body)
	}
	for _, path := range []string{"", "/trace"} {
		if code, _ := getCode(t, srv, "/api/v1/jobs/"+lastKey+path); code != http.StatusNotFound {
			t.Errorf("rejected submission's %q = %d, want 404", path, code)
		}
	}
	var stages []string
	for _, ev := range ring.Events() {
		if ev.Kind == obs.KindJob && ev.Job == lastKey {
			stages = append(stages, ev.Phase)
		}
	}
	if strings.Join(stages, ",") != StageReceived+","+StageRejected {
		t.Errorf("Tracer saw %v for the rejected submission, want received,rejected", stages)
	}
}

// TestPrunedJobGoneEverywhere: a job pruned beyond MaxJobs answers 404 on
// status, result, stream, and trace alike, and reading it creates no
// state.
func TestPrunedJobGoneEverywhere(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(m, httpserve.Options{}))
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		spec := JobSpec{N: 100 + i, Trials: 1, RValues: []float64{4, 6, 8}}
		st, _, err := m.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitTerminal(t, m, st.ID); final.State != StateDone {
			t.Fatalf("job %d = %+v", i, final)
		}
		ids = append(ids, st.ID)
	}
	if code, body := getCode(t, srv, "/api/v1/jobs/"+ids[2]+"/stream"); code != http.StatusOK ||
		strings.Count(body, `"event":"point"`) != 3 {
		t.Fatalf("retained job's stream = %d %s, want 3 points", code, body)
	}

	for _, path := range []string{"", "/result", "/stream", "/trace"} {
		if code, body := getCode(t, srv, "/api/v1/jobs/"+ids[0]+path); code != http.StatusNotFound {
			t.Errorf("pruned job's %q = %d %s, want 404", path, code, body)
		}
	}
	if got := gauge(t, srv, "netags_serve_jobs_retained"); got != 1 {
		t.Errorf("netags_serve_jobs_retained = %v, want 1", got)
	}
	if got := gauge(t, srv, "netags_serve_checkpoint_jobs"); got != 1 {
		t.Errorf("netags_serve_checkpoint_jobs = %v after reading a pruned job, want 1", got)
	}
}
