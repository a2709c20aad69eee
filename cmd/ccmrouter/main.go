// Command ccmrouter is the cluster front door over N ccmserve workers: a
// consistent-hash shard router with admission control and per-backend
// circuit breakers (see internal/cluster).
//
// Example (3-worker cluster):
//
//	ccmserve -addr :9081 & ccmserve -addr :9082 & ccmserve -addr :9083 &
//	ccmrouter -addr :9080 -backends localhost:9081,localhost:9082,localhost:9083
//	curl -s localhost:9080/api/v1/jobs -d '{"spec":{"n":10000,"trials":5,"r_values":[2,4,6,8,10]}}'
//	curl -s localhost:9080/metrics | grep netags_cluster_   # ring/breaker/admission state
//
// Submissions shard by the JobSpec's SHA-256 content address, so one job's
// submit, stream, trace, and result all land on the worker that owns (and
// cached) it. A worker that dies trips its breaker and its keyspace
// re-routes to the next ring owner; results are content-addressed, so the
// re-executed jobs come back byte-identical. Overload is rejected at this
// edge — per-client token buckets and utilization shedding answer 429 with
// Retry-After before a worker queue ever deepens.
//
// Observability mirrors ccmserve: /metrics (every ring, breaker, admission
// and router number), /events, /api/v1/timeseries, /api/v1/alerts (cluster
// SLO rules built in), /debug/dash.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"netags/internal/cluster"
	"netags/internal/obs/httpserve"
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

		rate    = fs.Float64("rate", 0, "per-client sustained submissions/second (0 disables rate limiting)")
		burst   = fs.Float64("burst", 0, "per-client token-bucket burst (0 = max(rate,1))")
		maxInfl = fs.Int("max-inflight", 0, "cluster-wide cap on proxied requests in flight, open streams included, for utilization shedding (0 disables; bulk submissions shed at 80%)")

		brkConsec   = fs.Int("breaker-consec", 5, "consecutive failures that trip a backend's breaker")
		brkCooldown = fs.Duration("breaker-cooldown", 5*time.Second, "open-state cooldown before half-open probes")
	)
	d := serve.NewDaemon("ccmrouter", fs, "cluster defaults")
	if err := d.Parse(args); err != nil {
		return err
	}
	defer d.Stop()
	var workerAddrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			workerAddrs = append(workerAddrs, b)
		}
	}
	if len(workerAddrs) == 0 {
		return fmt.Errorf("-backends is required (comma-separated worker addresses)")
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends: workerAddrs,
		Admit:    cluster.AdmitConfig{Rate: *rate, Burst: *burst, MaxInflight: *maxInfl},
		Breaker:  cluster.BreakerConfig{ConsecutiveFailures: *brkConsec, Cooldown: *brkCooldown},
		Logger:   d.Logger,
		Tracer:   d.Ring,
	})
	if err != nil {
		return err
	}

	// Time-series engine + SLO evaluator over the router's registry — the
	// same machinery ccmserve runs.
	var obsOpts httpserve.Options
	if err := d.StartTelemetry(rt.Registry(), cluster.DefaultSLORules(), &obsOpts); err != nil {
		return err
	}
	// Unlike ccmserve there is no job manager to drain: the fixed 10 s
	// budget covers in-flight proxied requests only.
	srv, err := serve.Listen(*addr, rt.Handler(obsOpts), nil, 10*time.Second)
	if err != nil {
		return err
	}
	// The plain banner stays greppable for scripts (cluster_e2e.sh parses
	// the address out of it); everything after startup is structured.
	fmt.Fprintf(os.Stderr, "ccmrouter: listening on %s (backends=%d)\n", srv.Addr(), len(workerAddrs))
	d.Logger.Info("ccmrouter started",
		"addr", srv.Addr(), "backends", strings.Join(workerAddrs, ","),
		"rate", *rate, "max_inflight", *maxInfl,
		"breaker_consec", *brkConsec, "breaker_cooldown", brkCooldown.String())
	if ready != nil {
		ready <- srv.Addr()
	}
	return d.Run(ctx, srv.Close)
}
