package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netags/internal/obs"
)

func TestMiddlewareRequestID(t *testing.T) {
	var seen string
	h := withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}), slog.New(slog.DiscardHandler), nil)

	// Generated when absent.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	got := rec.Header().Get(RequestIDHeader)
	if got == "" || got != seen {
		t.Fatalf("generated id: header=%q ctx=%q", got, seen)
	}

	// Propagated when the client sends one.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "client-chosen-id")
	h.ServeHTTP(rec, req)
	if rec.Header().Get(RequestIDHeader) != "client-chosen-id" || seen != "client-chosen-id" {
		t.Fatalf("propagated id: header=%q ctx=%q", rec.Header().Get(RequestIDHeader), seen)
	}
}

func TestMiddlewarePanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), log, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("body = %q (err %v)", rec.Body.String(), err)
	}
	if !strings.Contains(logBuf.String(), "handler panic") || !strings.Contains(logBuf.String(), "boom") {
		t.Fatalf("panic not logged: %s", logBuf.String())
	}
}

// promText renders a registry's exposition.
func promText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var out bytes.Buffer
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestMiddlewareRecordsRouteLatency(t *testing.T) {
	reg := obs.NewRegistry()
	hists := newHTTPHists(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	h := withMiddleware(mux, slog.New(slog.DiscardHandler), hists)

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/api/v1/jobs/abc", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/nowhere-registered", nil))

	s := promText(t, reg)
	if !strings.Contains(s, `netags_http_request_ms_count{route="GET /api/v1/jobs/{id}",status="404"} 1`) {
		t.Fatalf("missing route series:\n%s", s)
	}
	if !strings.Contains(s, `route="other"`) {
		t.Fatalf("unmatched request not recorded as route other:\n%s", s)
	}
	if !strings.Contains(s, "netags_http_requests_total 2") || !strings.Contains(s, "netags_http_requests_good_total 2") {
		t.Fatalf("request totals not counted:\n%s", s)
	}
}

func TestMiddlewareAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&logBuf, nil))
	h := withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}), log, nil)
	req := httptest.NewRequest("GET", "/brew", nil)
	req.Header.Set(RequestIDHeader, "rid-1")
	h.ServeHTTP(httptest.NewRecorder(), req)

	var line struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log not JSON: %q (%v)", logBuf.String(), err)
	}
	if line.Msg != "http request" || line.RequestID != "rid-1" || line.Method != "GET" ||
		line.Path != "/brew" || line.Status != http.StatusTeapot {
		t.Fatalf("access log fields = %+v", line)
	}
}

// TestMiddlewarePreservesFlush pins the Unwrap contract: the NDJSON stream
// handler needs http.ResponseController to find Flush through the wrapper.
func TestMiddlewarePreservesFlush(t *testing.T) {
	flushed := false
	h := withMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		if err := rc.Flush(); err != nil {
			t.Errorf("Flush through middleware: %v", err)
			return
		}
		flushed = true
	}), slog.New(slog.DiscardHandler), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if !flushed || !rec.Flushed {
		t.Fatalf("flushed=%v rec.Flushed=%v", flushed, rec.Flushed)
	}
}

func TestSLOHistsWriteProm(t *testing.T) {
	reg := obs.NewRegistry()
	s := newSLOHists(reg)
	s.observeQueueWait(PriorityInteractive, 3*time.Millisecond)
	s.observeQueueWait(PriorityBulk, 900*time.Millisecond)
	s.exec.Observe(10)
	s.e2e.Observe(12)
	s.point.Observe(2)

	text := promText(t, reg)
	for _, want := range []string{
		`netags_serve_queue_wait_ms_count{class="bulk"} 1`,
		`netags_serve_queue_wait_ms_count{class="interactive"} 1`,
		`netags_serve_exec_ms_count 1`,
		`netags_serve_e2e_ms_count 1`,
		`netags_serve_point_ms_count 1`,
		`netags_serve_point_ms_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// 2 ms lands in bucket [2,4) → first cumulative bucket crossing it is
	// le="3" (2^2-1).
	if !strings.Contains(text, `netags_serve_point_ms_bucket{le="3"} 1`) {
		t.Fatalf("point observation missing from le=3 bucket:\n%s", text)
	}
}
