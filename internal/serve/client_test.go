package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAPIErrorCarriesBackend: a router-proxied error reply surfaces the
// answering shard in the typed error and its message.
func TestAPIErrorCarriesBackend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(BackendHeader, "10.0.0.7:9081")
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such job")
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	_, err := cl.Result(context.Background(), strings.Repeat("a", 64))
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

// TestClientNilLoggerDiscards pins that an unset Logger is safe: a stream
// that ends without a terminal state makes Await log a reconnect, and the
// second connection cancels the wait.
func TestClientNilLoggerDiscards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 2 {
			cancel()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if _, err := cl.Await(ctx, strings.Repeat("a", 64), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Await = %v, want the context's cancellation", err)
	}
}
