// Command ccmanalyze compares the paper's closed-form performance model
// (§IV-C, equations (3)–(13)) against the slot-level simulation, printing
// predicted versus measured execution time and per-tag energy for each
// inter-tag range.
//
// Example:
//
//	ccmanalyze -n 10000 -r 2,4,6,8,10 -app trp
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"netags/internal/analysis"
	"netags/internal/core"
	"netags/internal/experiment"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/topology"
	"netags/internal/trp"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccmanalyze:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ccmanalyze", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 10000, "number of tags")
		rList    = fs.String("r", "2,4,6,8,10", "comma-separated inter-tag ranges")
		app      = fs.String("app", "trp", "application parameters: trp | gmle")
		seed     = fs.Uint64("seed", 1, "deployment/request seed")
		byTier   = fs.Bool("tiers", false, "also print the per-tier energy breakdown (the load-balance view)")
		workers  = fs.Int("workers", 0, "parallel workers over r values (0 = all cores)")
		traceOut = fs.String("trace-out", "", "write every session's event stream to this JSONL file")
		metrics  = fs.String("metrics", "", "print a run metrics summary: text | json")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
		httpAddr = fs.String("http", "", "serve live introspection (/metrics, /progress, /events, /debug/pprof) on this address, e.g. :8080")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	instr, err := obs.StartInstrumentation(*traceOut, *metrics, *cpuProf, *memProf)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			instr.Close(os.Stdout)
		}
	}()

	var frame int
	sampling := 1.0
	switch *app {
	case "trp":
		frame = trp.PaperFrameSize
	case "gmle":
		frame = gmle.PaperFrameSize
		sampling = gmle.SamplingFor(frame, float64(*n))
	default:
		return fmt.Errorf("unknown app %q", *app)
	}

	fmt.Printf("%s over CCM: model (eqs. 3–13) vs simulation, n=%d f=%d p=%.4f\n",
		strings.ToUpper(*app), *n, frame, sampling)
	fmt.Printf("%4s  %5s  %12s  %12s  %12s  %12s  %12s  %12s\n",
		"r", "K", "time(model)", "time(sim)", "sent(model)", "sent(sim)", "recv(model)", "recv(sim)")

	rs, err := parseFloats(*rList)
	if err != nil {
		return err
	}
	// Live introspection (-http): each completed r value is one Progress
	// event, stamped here with the run's completed/total counts and elapsed
	// time, so /progress reports them and an ETA mid-run. Observe-only; with
	// the flag unset the tracer stays exactly instr.Tracer().
	var intro *httpserve.Server
	var observe func(experiment.Progress)
	if *httpAddr != "" {
		var latest func() ([]byte, error)
		observe, latest = experiment.TrackLatest(nil)
		intro, err = httpserve.Start(*httpAddr, httpserve.Options{
			Collector: obs.NewCollector(),
			Ring:      obs.NewRing(0),
			Progress:  latest,
		})
		if err != nil {
			return err
		}
		defer intro.Close()
		fmt.Fprintf(os.Stderr, "introspection: http://%s\n", intro.Addr())
	}
	var (
		mu        sync.Mutex // orders the completed count with its event
		completed int
		runStart  = time.Now()
	)
	tracer := obs.Multi(instr.Tracer(), intro.Tracer())
	// The deployment is built once and shared read-only; each r value's
	// topology build + session is independent, so they fan out over the
	// experiment package's worker pool and print in r order afterwards.
	d := geom.NewUniformDisk(*n, 30, *seed)
	out := make([]string, len(rs))
	err = experiment.ParallelFor(ctx, *workers, len(rs), func(ctx context.Context, i int) error {
		r := rs[i]
		start := time.Now()
		rg := topology.PaperRanges(r)
		nw, err := topology.Build(d, 0, rg)
		if err != nil {
			return err
		}
		// Reader labels the trace stream with the r index, so events from
		// concurrent r values stay distinguishable in the JSONL output.
		res, err := core.RunSession(nw, core.Config{
			FrameSize: frame, Seed: *seed, Sampling: sampling,
			Tracer: tracer, Reader: i,
		})
		if err != nil {
			return err
		}
		if observe != nil {
			mu.Lock()
			completed++
			observe(experiment.Progress{Sweep: "analyze", R: r, Trials: 1,
				Tiers: nw.K, Elapsed: time.Since(start),
				Completed: completed, Total: len(rs), SweepElapsed: time.Since(runStart)})
			mu.Unlock()
		}
		in := func(i int) bool { return nw.Tier[i] > 0 }
		sum := res.Meter.Summarize(in)

		m := analysis.Model{
			Ranges:    rg,
			Density:   float64(*n) / (math.Pi * 900),
			FrameSize: frame,
			Sampling:  sampling,
		}
		if err := m.Validate(); err != nil {
			return err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%4g  %2d/%-2d  %12.0f  %12d  %12.1f  %12.1f  %12.0f  %12.1f\n",
			r, m.Tiers(), nw.K,
			m.ExecutionTimeSlots(), res.Clock.Total(),
			m.AvgSentBits(), sum.AvgSent,
			m.AvgReceivedBits(), sum.AvgReceived)
		if *byTier {
			// §VI-B2's load-balance observation: per-tier max ≈ avg.
			perTier := res.Meter.SummarizeByTier(nw.Tier, nw.K)
			for k := 1; k <= nw.K; k++ {
				ts := perTier[k]
				predSent, predRecv := m.SentBits(k), m.ReceivedBits(k)
				fmt.Fprintf(&b, "        tier %d (%5d tags): sent avg %7.1f max %5d (model %7.1f)  recv avg %9.1f max %7d (model %9.0f)\n",
					k, ts.Count, ts.AvgSent, ts.MaxSent, predSent, ts.AvgReceived, ts.MaxReceived, predRecv)
			}
		}
		out[i] = b.String()
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range out {
		fmt.Print(s)
	}
	closed = true
	return instr.Close(os.Stdout)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad r value %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
