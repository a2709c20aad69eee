package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/obs/timeseries"
	"netags/internal/serve"
)

func TestRunFlagValidation(t *testing.T) {
	if _, err := run(context.Background(), nil, &strings.Builder{}); err == nil {
		t.Fatal("expected error without -addr")
	}
	if _, err := run(context.Background(), []string{"-addr", "x", "-rps", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("expected error for -rps 0")
	}
}

func TestRunUnreachableServer(t *testing.T) {
	// A port nothing listens on: the health probe must fail fast (exit 1
	// path), not degenerate into a full run of per-job errors.
	_, err := run(context.Background(), []string{"-addr", "127.0.0.1:1", "-duration", "1s"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
}

// TestRunAgainstLiveServer drives a real in-process ccmserve stack — manager,
// timeseries sampler, alert evaluator — exactly as cmd/ccmserve wires it,
// and asserts a short low-RPS run passes every check ccmload offers.
func TestRunAgainstLiveServer(t *testing.T) {
	collector := obs.NewCollector()
	m := serve.NewManager(serve.Config{
		QueueDepth: 64,
		Workers:    2,
		MaxJobs:    256,
		Tracer:     collector,
	})
	collector.Register(m.Registry())
	tel, err := timeseries.StartTelemetry(m.Registry(), serve.DefaultSLORules(),
		50*time.Millisecond, time.Minute, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Stop()

	srv, err := serve.StartServer("127.0.0.1:0", m,
		httpserve.Options{Collector: collector, Timeseries: tel.DB, Alerts: tel.Alerts}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var out strings.Builder
	violations, err := run(context.Background(), []string{
		"-addr", srv.Addr(),
		"-rps", "20",
		"-duration", "500ms",
		"-drain", "20s",
		"-large-ratio", "0",
		"-max-p99", "30s",
		"-fail-on-alerts",
		"-check-series", "serve_queue_len,serve_jobs_executed_total,sessions_total,runtime_goroutines",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if len(violations) != 0 {
		t.Fatalf("unexpected violations %v\noutput:\n%s", violations, out.String())
	}
	for _, want := range []string{"e2e latency", "alerts firing=0", "timeseries check passed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunShedRetryAndReportJSON drives ccmload against a stub API that
// sheds the first submissions with 429 + Retry-After: the generator must
// wait the (jittered) hint out and retry into admission — zero rejected,
// zero failed — and the -report-json document must carry the shed
// accounting.
func TestRunShedRetryAndReportJSON(t *testing.T) {
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) <= 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":{"code":"shed_overload","message":"cluster admission"}}`)
			return
		}
		var req serve.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		key, _ := req.Spec.Key()
		json.NewEncoder(w).Encode(serve.SubmitResponse{ID: key, Status: serve.OutcomeCached}) //nolint:errcheck
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		st := serve.JobStatus{ID: r.PathValue("id"), State: serve.StateDone}
		json.NewEncoder(w).Encode(serve.StreamEvent{Event: "state", State: &st}) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	reportPath := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	violations, err := run(context.Background(), []string{
		"-addr", strings.TrimPrefix(srv.URL, "http://"),
		"-rps", "50",
		"-duration", "100ms",
		"-drain", "10s",
		"-report-json", reportPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if len(violations) != 0 {
		t.Fatalf("sheds escalated to violations: %v\noutput:\n%s", violations, out.String())
	}
	if !strings.Contains(out.String(), "shed responses=3") {
		t.Errorf("summary missing shed accounting:\n%s", out.String())
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, raw)
	}
	if rep.ShedResponses != 3 {
		t.Errorf("report shed_responses = %d, want 3", rep.ShedResponses)
	}
	if rep.Rejected != 0 || rep.Failed != 0 {
		t.Errorf("report counts rejected=%d failed=%d, want 0/0 (sheds were retried)", rep.Rejected, rep.Failed)
	}
	if rep.Finished != rep.Submitted || rep.Finished == 0 {
		t.Errorf("report finished=%d submitted=%d, want all finished", rep.Finished, rep.Submitted)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Errorf("report shed_rate = %g, want in (0,1)", rep.ShedRate)
	}
	if rep.Violations == nil || len(rep.Violations) != 0 {
		t.Errorf("report violations = %v, want empty array", rep.Violations)
	}
}

// TestWriteReportStdout pins the "-" path writing to the provided writer.
func TestWriteReportStdout(t *testing.T) {
	var out strings.Builder
	if err := writeReport(report{Submitted: 2}, "-", &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout report not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Submitted != 2 {
		t.Fatalf("round-trip lost data: %+v", rep)
	}
}

func TestPercentile(t *testing.T) {
	d := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(d, 0.50); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(d, 0.99); got != 10 {
		t.Errorf("p99 = %d, want 10", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty p99 = %d, want 0", got)
	}
}
