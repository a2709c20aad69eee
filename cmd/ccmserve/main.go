// Command ccmserve runs the simulation-as-a-service daemon: a
// priority-aware job queue, worker pool, per-point checkpoint store, and
// content-addressed result cache over the experiment sweeps, exposed as a
// versioned HTTP API (/api/v1) beside the live
// introspection endpoints (see internal/serve).
//
// Example:
//
//	ccmserve -addr :8080 -pool 2 -queue 64 -cache 256 -checkpoint-dir /var/lib/ccmserve
//	curl -s localhost:8080/api/v1/jobs -d '{"spec":{"n":10000,"trials":5,"r_values":[2,4,6,8,10]}}'
//	curl -sN localhost:8080/api/v1/jobs/<id>/stream   # NDJSON per-point tail
//	curl -s localhost:8080/api/v1/jobs/<id>/trace     # lifecycle timeline
//
// With -checkpoint-dir set, a killed daemon resumes half-finished sweeps:
// resubmitting the same spec after a restart recomputes only the points the
// checkpoint is missing and still produces byte-identical results. Add
// -checkpoint-ttl to garbage-collect checkpoint files that no process came
// back for.
//
// Observability: structured logs (-log-level, -log-format) on stderr with
// X-Request-ID correlation, job lifecycle timelines on /jobs/{id}/trace and
// mirrored into /events (-events bounds the ring), SLO histograms and
// per-class queue gauges on /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "ccmserve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled or a SIGINT/SIGTERM arrives. If ready
// is non-nil the bound address is sent on it once listening (test hook).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("ccmserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		queueDepth  = fs.Int("queue", 64, "bounded job queue depth (full queue answers 429)")
		pool        = fs.Int("pool", 2, "concurrent sweep jobs (worker pool size)")
		jobWorkers  = fs.Int("job-workers", 0, "per-job experiment worker cap (0 = cores/pool)")
		cacheCap    = fs.Int("cache", 256, "done jobs that keep their result payload (LRU; negative = all); results stay served for at most min(-cache, -max-jobs) jobs")
		maxJobs     = fs.Int("max-jobs", 1024, "job records to retain; the oldest terminal ones are pruned with their checkpoint rows, result and trace")
		ckptDir     = fs.String("checkpoint-dir", "", "persist per-point checkpoints here for crash-resumable sweeps (empty = memory only)")
		ckptTTL     = fs.Duration("checkpoint-ttl", 0, "purge checkpoint files unreferenced for this long (0 = never)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight jobs")
		traceEvents = fs.Int("trace-events", 0, "lifecycle trace events retained per job (0 = default 256, negative disables /trace)")
	)
	d := serve.NewDaemon("ccmserve", fs, "defaults")
	if err := d.Parse(args); err != nil {
		return err
	}
	defer d.Stop()

	// The collector aggregates protocol metrics for /metrics; the ring holds
	// the most recent events for /events — serve lifecycle events included.
	collector := obs.NewCollector()
	sinks := []obs.Tracer{collector}
	if d.Ring != nil {
		sinks = append(sinks, d.Ring)
	}

	m := serve.NewManager(serve.Config{
		QueueDepth:        *queueDepth,
		Workers:           *pool,
		JobWorkers:        *jobWorkers,
		CacheCapacity:     *cacheCap,
		MaxJobs:           *maxJobs,
		CheckpointDir:     *ckptDir,
		CheckpointTTL:     *ckptTTL,
		Tracer:            obs.Multi(sinks...),
		Logger:            d.Logger,
		TraceEventsPerJob: *traceEvents,
	})
	// One registry holds every family /metrics serves: the manager's, the
	// sim collector's, and the event ring's. The time-series engine samples
	// it (plus the Go runtime) once per resolution and judges the SLO rules
	// on every tick. All observe-only — with -ts-resolution 0 none of the
	// engine exists and no goroutine runs.
	reg := m.Registry()
	collector.Register(reg)
	obsOpts := httpserve.Options{Collector: collector}
	if err := d.StartTelemetry(reg, serve.DefaultSLORules(), &obsOpts); err != nil {
		return err
	}

	srv, err := serve.StartServer(*addr, m, obsOpts, *drain)
	if err != nil {
		return err
	}
	// The plain banner stays greppable for scripts (serve_e2e.sh parses the
	// address out of it); everything after startup is structured.
	fmt.Fprintf(os.Stderr, "ccmserve: listening on %s (pool=%d queue=%d cache=%d)\n",
		srv.Addr(), *pool, *queueDepth, *cacheCap)
	d.Logger.Info("ccmserve started",
		"addr", srv.Addr(), "pool", *pool, "queue", *queueDepth, "cache", *cacheCap,
		"checkpoint_dir", *ckptDir, "checkpoint_ttl", ckptTTL.String())
	if ready != nil {
		ready <- srv.Addr()
	}
	return d.Run(ctx, srv.Close)
}
