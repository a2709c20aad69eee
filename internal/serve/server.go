package serve

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/obs/timeseries"
)

// Server binds a handler to a TCP listener — what cmd/ccmserve (a Manager
// and the combined handler, via StartServer) and cmd/ccmrouter (via
// Listen) run. Close drains gracefully: for a Manager, readiness flips
// first (load balancers stop routing), queued jobs are rejected, in-flight
// jobs get the shutdown timeout to finish; then the HTTP server itself
// drains within the same budget.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	drain   func(context.Context) error
	timeout time.Duration

	closeOnce sync.Once
	closeErr  error
}

// ReadHeaderTimeout bounds how long a connection may take to send its
// request headers. It also bounds a drain: http.Server.Shutdown waits up to
// 5 s for a connection that has sent nothing yet (a client transport's
// unused spare), and this timeout closes such a connection after 1 s.
const ReadHeaderTimeout = time.Second

// Listen serves h on addr (":0" picks a free port) until Close. Close runs
// drain first when it is non-nil; shutdownTimeout bounds the whole drain
// (0 means 10s).
func Listen(addr string, h http.Handler, drain func(context.Context) error, shutdownTimeout time.Duration) (*Server, error) {
	if shutdownTimeout <= 0 {
		shutdownTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:      ln,
		drain:   drain,
		timeout: shutdownTimeout,
		srv:     &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// StartServer listens on addr and serves m's jobs API plus introspection
// endpoints until Close, which drains m before the HTTP server.
func StartServer(addr string, m *Manager, obsOpts httpserve.Options, shutdownTimeout time.Duration) (*Server, error) {
	return Listen(addr, NewHandler(m, obsOpts), m.Shutdown, shutdownTimeout)
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains (bounded by the shutdown timeout) and then shuts the HTTP
// server down. It is idempotent and safe to call concurrently: every call
// waits for the one drain and returns the same error (non-nil when the
// timeout forced in-flight work to cancel).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
		defer cancel()
		if s.drain != nil {
			s.closeErr = s.drain(ctx)
		}
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

// Daemon is the plumbing ccmserve and ccmrouter share: the six telemetry
// flags, the logger and event ring built from them, the history engine
// over the daemon's registry, and the signal-then-drain tail.
type Daemon struct {
	// Logger and Ring are built by Parse; Ring is nil when -events is 0.
	Logger *slog.Logger
	Ring   *obs.Ring

	name                string
	fs                  *flag.FlagSet
	events              *int
	logLevel, logFormat *string
	tsRes, tsRet        *time.Duration
	sloRules            *string
	tel                 *timeseries.Telemetry
}

// NewDaemon registers the shared telemetry flags on fs. rules names the
// built-in SLO rule set in the -slo-rules help.
func NewDaemon(name string, fs *flag.FlagSet, rules string) *Daemon {
	return &Daemon{
		name:      name,
		fs:        fs,
		events:    fs.Int("events", 512, "event ring capacity backing /events (0 disables)"),
		logLevel:  fs.String("log-level", "info", "log verbosity: debug|info|warn|error"),
		logFormat: fs.String("log-format", "text", "log encoding on stderr: text|json"),
		tsRes:     fs.Duration("ts-resolution", time.Second, "timeseries sampling interval (0 disables the history engine, dashboard, and alerts)"),
		tsRet:     fs.Duration("ts-retention", 15*time.Minute, "timeseries history window per series"),
		sloRules:  fs.String("slo-rules", "", "SLO alert rules: a JSON file path, inline JSON ('[...]'), or 'off' (empty = built-in "+rules+")"),
	}
}

// Parse parses args and builds the logger (on stderr) and the event ring.
func (d *Daemon) Parse(args []string) error {
	if err := d.fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *d.logLevel, *d.logFormat)
	if err != nil {
		return err
	}
	d.Logger = logger
	if *d.events > 0 {
		d.Ring = obs.NewRing(*d.events)
	}
	return nil
}

// StartTelemetry registers the event ring into reg and, unless
// -ts-resolution is 0, starts the history engine over reg, judging the
// -slo-rules (defaults when empty) on every tick. It points opts at the
// registry, the ring, the history and the alerts. Stop halts the engine.
func (d *Daemon) StartTelemetry(reg *obs.Registry, defaults []timeseries.Rule, opts *httpserve.Options) error {
	opts.Registry = reg
	var tracer obs.Tracer
	if d.Ring != nil {
		d.Ring.Register(reg)
		opts.Ring, tracer = d.Ring, d.Ring
	}
	if *d.tsRes <= 0 {
		return nil
	}
	rules, err := timeseries.LoadRules(*d.sloRules, defaults)
	if err != nil {
		return err
	}
	tel, err := timeseries.StartTelemetry(reg, rules, *d.tsRes, *d.tsRet, d.Logger, tracer)
	if err != nil {
		return err
	}
	d.tel = tel
	opts.Timeseries, opts.Alerts = tel.DB, tel.Alerts
	d.Logger.Info("timeseries sampler started",
		"resolution", d.tsRes.String(), "retention", d.tsRet.String(),
		"series_cap", tel.DB.SeriesCap(), "rules", len(rules))
	return nil
}

// Stop halts the history engine, if StartTelemetry started one.
func (d *Daemon) Stop() {
	if d.tel != nil {
		d.tel.Stop()
	}
}

// Run blocks until ctx is canceled or SIGINT/SIGTERM arrives, then drains
// through shutdown.
func (d *Daemon) Run(ctx context.Context, shutdown func() error) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	d.Logger.Info(d.name + " draining")
	if err := shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	d.Logger.Info(d.name + " drained cleanly")
	return nil
}
