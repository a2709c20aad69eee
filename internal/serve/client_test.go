package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitRetryReportsAttempts: when the context expires while waiting
// out backpressure, the error says how many submissions were attempted —
// exactly as many as the server answered. The jittered backoff may fall
// under the context's 100 ms, so the count is read from the server rather
// than assumed to be 1.
func TestSubmitRetryReportsAttempts(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "queue full")
	}))
	defer srv.Close()

	var logBuf bytes.Buffer
	cl := &Client{BaseURL: srv.URL, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := cl.SubmitRetry(ctx, testSpec(0), SubmitOptions{})
	if err == nil {
		t.Fatal("SubmitRetry succeeded against an always-busy server")
	}
	if want := fmt.Sprintf("after %d attempt", served.Load()); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not carry the attempt count: %v", err)
	}
	if !strings.Contains(logBuf.String(), "submit backpressure") {
		t.Fatalf("retry not logged: %q", logBuf.String())
	}
}

// TestJitterBackoffBounds pins the full-jitter envelope: for any unit
// draw, the sleep stays within [minBackoff, max(base, minBackoff)] — the
// floor stops a zero draw from busy-spinning, the ceiling honors the
// server's Retry-After as the worst case, and intermediate draws scale
// linearly so concurrent shed clients spread across the interval instead
// of stampeding at its end.
func TestJitterBackoffBounds(t *testing.T) {
	cases := []struct {
		base time.Duration
		u    float64
		want time.Duration
	}{
		{2 * time.Second, 0, minBackoff},                // floor
		{2 * time.Second, 0.25, 500 * time.Millisecond}, // linear
		{2 * time.Second, 0.5, time.Second},
		{2 * time.Second, 1, 2 * time.Second}, // ceiling = the hint
		{time.Second, 0.999, 999 * time.Millisecond},
		{0, 0.5, minBackoff},                   // degenerate hint floors
		{10 * time.Millisecond, 1, minBackoff}, // sub-floor hint clamps up
		{10 * time.Millisecond, 0, minBackoff},
	}
	for _, c := range cases {
		got := jitterBackoff(c.base, c.u)
		if got != c.want {
			t.Errorf("jitterBackoff(%s, %g) = %s, want %s", c.base, c.u, got, c.want)
		}
		if got < minBackoff {
			t.Errorf("jitterBackoff(%s, %g) = %s below the %s floor", c.base, c.u, got, minBackoff)
		}
		if ceil := max(c.base, minBackoff); got > ceil {
			t.Errorf("jitterBackoff(%s, %g) = %s above the %s ceiling", c.base, c.u, got, ceil)
		}
	}
}

// TestAPIErrorCarriesBackend: a router-proxied error reply surfaces the
// answering shard in the typed error and its message.
func TestAPIErrorCarriesBackend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(BackendHeader, "10.0.0.7:9081")
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job")
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	_, err := cl.Job(context.Background(), strings.Repeat("a", 64))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %T %v, want *APIError", err, err)
	}
	if apiErr.Backend != "10.0.0.7:9081" {
		t.Fatalf("Backend = %q, want the routed shard", apiErr.Backend)
	}
	if !strings.Contains(apiErr.Error(), "10.0.0.7:9081") {
		t.Fatalf("error text omits the backend: %v", apiErr)
	}
}

// TestClientNilLoggerDiscards pins that an unset Logger is safe.
func TestClientNilLoggerDiscards(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, CodeQueueFull, "queue full")
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.SubmitRetry(ctx, testSpec(0), SubmitOptions{}); err == nil {
		t.Fatal("expected context-expiry error")
	}
}
