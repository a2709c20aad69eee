// Command ccmrouter is the cluster front door over N ccmserve workers: a
// consistent-hash shard router with admission control and per-backend
// circuit breakers (see internal/cluster).
//
// Example (3-worker cluster):
//
//	ccmserve -addr :9081 & ccmserve -addr :9082 & ccmserve -addr :9083 &
//	ccmrouter -addr :9080 -backends localhost:9081,localhost:9082,localhost:9083
//	curl -s localhost:9080/api/v1/jobs -d '{"spec":{"n":10000,"trials":5,"r_values":[2,4,6,8,10]}}'
//	curl -s localhost:9080/api/v1/cluster | jq .   # ring/breaker/admission state
//
// Submissions shard by the JobSpec's SHA-256 content address, so one job's
// submit, stream, trace, and result all land on the worker that owns (and
// cached) it. A worker that dies trips its breaker and its keyspace
// re-routes to the next ring owner; results are content-addressed, so the
// re-executed jobs come back byte-identical. Overload is rejected at this
// edge — per-client token buckets and utilization shedding answer 429 with
// Retry-After before a worker queue ever deepens.
//
// Observability mirrors ccmserve: /metrics, /events, /api/v1/timeseries,
// /api/v1/alerts (cluster SLO rules built in), /api/v1/cluster, /debug/dash.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netags/internal/cluster"
	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/obs/timeseries"
	"netags/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "ccmrouter:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled or a SIGINT/SIGTERM arrives. If ready
// is non-nil the bound address is sent on it once listening (test hook).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("ccmrouter", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":9080", "listen address")
		backends = fs.String("backends", "", "comma-separated ccmserve worker addresses (host:port, required)")
		replicas = fs.Int("replicas", cluster.DefaultReplicas, "virtual nodes per backend on the hash ring")
		maxTries = fs.Int("max-attempts", 0, "distinct backends tried per request (0 = all)")

		rate       = fs.Float64("rate", 0, "per-client sustained submissions/second (0 disables rate limiting)")
		burst      = fs.Float64("burst", 0, "per-client token-bucket burst (0 = max(rate,1))")
		maxClients = fs.Int("max-clients", 4096, "client buckets tracked before falling back to a shared overflow bucket")
		maxInfl    = fs.Int("max-inflight", 0, "cluster-wide in-flight cap for utilization shedding (0 disables)")
		shedBulk   = fs.Float64("shed-bulk", 0.8, "utilization fraction at which bulk submissions shed (interactive sheds only at 1.0)")

		brkConsec   = fs.Int("breaker-consec", 5, "consecutive failures that trip a backend's breaker")
		brkRate     = fs.Float64("breaker-rate", 0.5, "windowed failure rate that trips the breaker")
		brkMin      = fs.Int("breaker-min", 10, "minimum windowed samples before the rate condition judges")
		brkWindow   = fs.Duration("breaker-window", 10*time.Second, "failure-rate observation window")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "open-state cooldown before half-open probes")
		probes      = fs.Int("probes", 1, "concurrent half-open probes per backend")
		probeOK     = fs.Int("probe-successes", 2, "probe successes that close a half-open breaker")

		events    = fs.Int("events", 512, "event ring capacity backing /events (0 disables)")
		logLevel  = fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat = fs.String("log-format", "text", "log encoding on stderr: text|json")
		tsRes     = fs.Duration("ts-resolution", time.Second, "timeseries sampling interval (0 disables the history engine, dashboard, and alerts)")
		tsRet     = fs.Duration("ts-retention", 15*time.Minute, "timeseries history window per series")
		sloRules  = fs.String("slo-rules", "", "SLO alert rules: a JSON file path, inline JSON ('[...]'), or 'off' (empty = built-in cluster defaults)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	var workerAddrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			workerAddrs = append(workerAddrs, b)
		}
	}
	if len(workerAddrs) == 0 {
		return fmt.Errorf("-backends is required (comma-separated worker addresses)")
	}

	var ring *obs.Ring
	if *events > 0 {
		ring = obs.NewRing(*events)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:    workerAddrs,
		Replicas:    *replicas,
		MaxAttempts: *maxTries,
		Admit: cluster.AdmitConfig{
			Rate: *rate, Burst: *burst, MaxClients: *maxClients,
			MaxInflight: *maxInfl, BulkShedFraction: *shedBulk,
		},
		Breaker: cluster.BreakerConfig{
			ConsecutiveFailures: *brkConsec, FailureRate: *brkRate,
			MinSamples: *brkMin, Window: *brkWindow, Cooldown: *brkCooldown,
			HalfOpenProbes: *probes, ProbeSuccesses: *probeOK,
		},
		Logger: logger,
		Tracer: ring,
	})
	if err != nil {
		return err
	}

	// Time-series engine + SLO evaluator over the router's registry — the
	// same machinery ccmserve runs.
	obsOpts := httpserve.Options{Registry: rt.Registry()}
	var tracer obs.Tracer
	if ring != nil {
		obsOpts.Ring, tracer = ring, ring
		ring.Register(rt.Registry())
	}
	if *tsRes > 0 {
		rules, err := timeseries.LoadRules(*sloRules, cluster.DefaultSLORules())
		if err != nil {
			return err
		}
		tel, err := timeseries.StartTelemetry(rt.Registry(), rules, *tsRes, *tsRet, logger, tracer)
		if err != nil {
			return err
		}
		defer tel.Stop()
		obsOpts.Timeseries, obsOpts.Alerts = tel.DB, tel.Alerts
		logger.Info("timeseries sampler started",
			"resolution", tsRes.String(), "retention", tsRet.String(), "rules", len(rules))
	}

	srv, err := httpStart(*addr, rt.Handler(obsOpts))
	if err != nil {
		return err
	}
	// The plain banner stays greppable for scripts (cluster_e2e.sh parses
	// the address out of it); everything after startup is structured.
	fmt.Fprintf(os.Stderr, "ccmrouter: listening on %s (backends=%d replicas=%d)\n",
		srv.addr, len(workerAddrs), *replicas)
	logger.Info("ccmrouter started",
		"addr", srv.addr, "backends", strings.Join(workerAddrs, ","),
		"replicas", *replicas,
		"rate", *rate, "max_inflight", *maxInfl,
		"breaker_consec", *brkConsec, "breaker_cooldown", brkCooldown.String())
	if ready != nil {
		ready <- srv.addr
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("ccmrouter draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info("ccmrouter drained cleanly")
	return nil
}

// httpSrv pairs a server with its bound address (":0" support for tests).
type httpSrv struct {
	srv  *http.Server
	addr string
}

func httpStart(addr string, h http.Handler) (*httpSrv, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &httpSrv{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: serve.ReadHeaderTimeout},
		addr: ln.Addr().String(),
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown
	return s, nil
}
