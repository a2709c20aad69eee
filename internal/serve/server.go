package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"netags/internal/obs/httpserve"
)

// Server binds a Manager and the combined handler to a TCP listener —
// what cmd/ccmserve runs. Close drains gracefully: readiness flips first
// (load balancers stop routing), queued jobs are rejected, in-flight jobs
// get ShutdownTimeout to finish, then the HTTP server itself drains.
type Server struct {
	m       *Manager
	ln      net.Listener
	srv     *http.Server
	timeout time.Duration

	closeOnce sync.Once
	closeErr  error
}

// ReadHeaderTimeout bounds how long a connection may take to send its
// request headers. It also bounds a drain: http.Server.Shutdown waits up to
// 5 s for a connection that has sent nothing yet (a client transport's
// unused spare), and this timeout closes such a connection after 1 s.
const ReadHeaderTimeout = time.Second

// StartServer listens on addr (":0" picks a free port) and serves the jobs
// API plus introspection endpoints until Close. shutdownTimeout bounds the
// graceful drain (0 means 10s).
func StartServer(addr string, m *Manager, obsOpts httpserve.Options, shutdownTimeout time.Duration) (*Server, error) {
	if shutdownTimeout <= 0 {
		shutdownTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		m:       m,
		ln:      ln,
		timeout: shutdownTimeout,
		srv: &http.Server{
			Handler:           NewHandler(m, obsOpts),
			ReadHeaderTimeout: ReadHeaderTimeout,
		},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Manager returns the job manager the server fronts.
func (s *Server) Manager() *Manager { return s.m }

// Close drains the manager (bounded by the shutdown timeout) and then the
// HTTP server. It is idempotent and safe to call concurrently: every call
// waits for the one drain and returns the same error (non-nil when the
// timeout forced in-flight jobs to cancel).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
		defer cancel()
		s.closeErr = s.m.Shutdown(ctx)
		if err := s.srv.Shutdown(ctx); err != nil {
			// The drain consumed the budget: close the remaining
			// connections hard rather than hanging forever.
			s.srv.Close()
			if s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
