// HTTP middleware for the combined serve mux: request-ID injection, panic
// recovery, per-route/per-status latency recording, and structured access
// logs. One wrapper does all four so every request pays exactly one
// ResponseWriter indirection; the writer implements Unwrap so
// http.ResponseController still reaches the underlying Flusher (the NDJSON
// stream handler depends on it).
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// RequestIDHeader is the correlation header: echoed when the client sends
// one, generated otherwise, always present on the response and attached to
// every log line the request produces.
const RequestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// RequestID returns the request's correlation id from its context ("" when
// the middleware is not mounted).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns 8 random bytes, hex-encoded.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the response status (and whether the header was
// written) while delegating everything else, Unwrap included.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController find Flush/Hijack on the wrapped
// writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withMiddleware wraps next with the serving middleware stack. log must be
// non-nil (use a discard logger to silence access logs); hists may be nil
// to skip latency recording.
func withMiddleware(next http.Handler, log *slog.Logger, hists *httpHists) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		defer func() {
			if rec := recover(); rec != nil {
				// A handler panicked. If nothing was written yet we can still
				// answer with the standard error envelope; mid-stream the
				// connection is already broken and the log is all we have.
				log.Error("handler panic",
					"request_id", rid, "method", r.Method, "path", r.URL.Path,
					"panic", rec, "stack", string(debug.Stack()))
				if !sw.wrote {
					sw.status = http.StatusInternalServerError
					WriteError(sw, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}
			elapsed := time.Since(start)
			route := r.Pattern
			if hists != nil {
				hists.observe(route, sw.status, elapsed)
			}
			if log.Enabled(r.Context(), slog.LevelInfo) {
				log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
					slog.String("request_id", rid),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("route", route),
					slog.Int("status", sw.status),
					slog.Int64("elapsed_ms", ms(elapsed)),
					slog.String("remote", r.RemoteAddr))
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
