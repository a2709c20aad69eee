// Command ccmtables regenerates the tables and figures of the paper's
// evaluation section (§VI): Fig. 3 (tiers), Fig. 4 (execution time) and
// Tables I–IV (per-tag energy), for SICP, GMLE-CCM and TRP-CCM.
//
// Examples:
//
//	ccmtables -all                      # everything, scaled-down trials
//	ccmtables -all -trials 100          # the paper's full 100 trials
//	ccmtables -all -workers 8           # same numbers, 8 trial workers
//	ccmtables -figure 4 -r 2,4,6,8,10
//	ccmtables -table 3 -csv out.csv
//	ccmtables -all -ablation            # CCM without the indicator vector
//	ccmtables -density 300,600 -r 6     # population sweep at one range
//	ccmtables -loss 0,0.3 -r 6          # unreliable-channel sweep
//
// Trials run in parallel over -workers goroutines (default: all cores);
// every worker count reports bit-identical numbers, because trial seeds are
// derived from the position (seed, r, trial), not from execution order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"netags/internal/experiment"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/obs/httpserve"
	"netags/internal/trp"
)

func main() {
	// Ctrl-C cancels the sweep instead of killing mid-write: the worker
	// pool drains and the first context error surfaces here.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccmtables:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ccmtables", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 10000, "number of tags")
		trials   = fs.Int("trials", 10, "trials per r value (paper uses 100)")
		rList    = fs.String("r", "2,3,4,5,6,7,8,9,10", "comma-separated inter-tag ranges")
		figure   = fs.Int("figure", 0, "render figure 3 or 4")
		table    = fs.Int("table", 0, "render table 1..4")
		all      = fs.Bool("all", false, "render every figure and table")
		seed     = fs.Uint64("seed", 1, "sweep seed")
		csvPath  = fs.String("csv", "", "also write all metrics to this CSV file")
		protos   = fs.String("protocols", "SICP,GMLE-CCM,TRP-CCM", "protocols to run")
		ablation = fs.Bool("ablation", false, "disable the indicator vector (flooding ablation)")
		loss     = fs.String("loss", "", "run the unreliable-channel sweep over these loss probabilities instead")
		density  = fs.String("density", "", "run the population sweep over these n values instead")
		quiet    = fs.Bool("quiet", false, "suppress progress output (alias for -progress off)")
		workers  = fs.Int("workers", 0, "parallel trial workers (0 = all cores, 1 = sequential; results are identical)")
		progress = fs.String("progress", "text", "progress output on stderr: text | json | off")
		traceOut = fs.String("trace-out", "", "write every protocol run's event stream to this JSONL file")
		metrics  = fs.String("metrics", "", "print a sweep metrics summary: text | json")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file")
		httpAddr = fs.String("http", "", "serve live introspection (/metrics, /progress, /events, /debug/pprof) on this address, e.g. :8080")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quiet {
		*progress = "off"
	}
	// Progress flows as structured experiment.Progress events; "text"
	// renders the legacy line, "json" one JSONL object per work item.
	var observe func(experiment.Progress)
	switch *progress {
	case "text":
		observe = func(p experiment.Progress) { fmt.Fprintln(os.Stderr, p.String()) }
	case "json":
		enc := json.NewEncoder(os.Stderr)
		observe = func(p experiment.Progress) { enc.Encode(p) }
	case "off":
	default:
		return fmt.Errorf("unknown -progress mode %q (want text, json, or off)", *progress)
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
	// Live introspection: -http starts an observe-only server whose
	// collector and ring ride the sweep's tracer, and whose /progress view
	// is the sweep's latest Progress event. With the flag unset, intro is
	// nil, intro.Tracer() is nil, and nothing changes.
	var intro *httpserve.Server
	if *httpAddr != "" {
		var latest func() ([]byte, error)
		observe, latest = experiment.TrackLatest(observe)
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
	// One path for every sweep kind: the kind's axis flag picks it, the
	// flags fill a Spec (each kind reads only its own fields), and the
	// kind's report renders it.
	spec := experiment.Spec{
		Sweep: experiment.SweepRange, N: *n, Radius: 30, Trials: *trials, Seed: *seed,
		GMLEFrame: gmle.PaperFrameSize, TRPFrame: trp.PaperFrameSize,
		DisableIndicatorVector: *ablation,
	}
	for _, p := range strings.Split(*protos, ",") {
		spec.Protocols = append(spec.Protocols, strings.TrimSpace(p))
	}
	if spec.RValues, err = parseFloats("-r", *rList); err != nil {
		return err
	}
	switch {
	case *density != "" && *loss != "":
		return fmt.Errorf("-density and -loss pick different sweeps; give one")
	case *density != "":
		spec.Sweep = experiment.SweepDensity
		spec.NValues, err = parseList("-density", *density, strconv.Atoi)
	case *loss != "":
		spec.Sweep = experiment.SweepLoss
		spec.LossValues, err = parseFloats("-loss", *loss)
	}
	if err != nil {
		return err
	}
	if spec.Sweep != experiment.SweepRange {
		// The density and loss sweeps hold the range fixed at one value and
		// print one table, with no figures to pick and no long form.
		if len(spec.RValues) != 1 {
			return fmt.Errorf("-%s sweeps at one inter-tag range, but -r lists %d", spec.Sweep, len(spec.RValues))
		}
		spec.R = spec.RValues[0]
		if *figure != 0 || *table != 0 || *csvPath != "" {
			return fmt.Errorf("-%s prints one table: -figure, -table and -csv apply to the range sweep only", spec.Sweep)
		}
	}
	// Each computed point's summed item time lands in its slot, for the
	// timing table printed to stderr after the sweep.
	elapsed := make([]time.Duration, spec.PointCount())
	res, err := experiment.Run(ctx, spec, experiment.Exec{
		Workers:   *workers,
		Tracer:    obs.Multi(instr.Tracer(), intro.Tracer()),
		Observe:   observe,
		PointDone: func(p experiment.PointInfo) { elapsed[p.Index] = p.Elapsed },
	})
	if err != nil {
		return err
	}
	finish := func() error {
		if *progress != "off" {
			fmt.Fprint(os.Stderr, timingTable(spec, elapsed))
		}
		closed = true
		return instr.Close(os.Stdout)
	}
	ranged, ok := res.(*experiment.Results)
	if !ok {
		fmt.Print(res)
		return finish()
	}
	if *all {
		*figure, *table = 0, 0
	}
	fmt.Print(ranged.Render(*figure, *table))
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(ranged.CSV()), 0o644); err != nil {
			return fmt.Errorf("write csv: %w", err)
		}
		fmt.Fprintln(os.Stderr, "wrote", *csvPath)
	}
	return finish()
}

// timingTable renders each point's item count, mean time per item and
// throughput, in axis order, from the points' summed item times.
func timingTable(spec experiment.Spec, elapsed []time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s  %6s  %12s  %12s\n", "point", "items", "ms/item", "items/sec")
	for i, d := range elapsed {
		fmt.Fprintf(&b, "%-12s  %6d  %12.2f  %12.1f\n", spec.PointLabel(i), spec.Trials,
			float64(d)/float64(time.Millisecond)/float64(spec.Trials), float64(spec.Trials)/d.Seconds())
	}
	return b.String()
}

// parseFloats parses the comma-separated numbers given to the named flag.
func parseFloats(name, s string) ([]float64, error) {
	return parseList(name, s, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// parseList parses the comma-separated values given to the named flag.
func parseList[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q: %w", name, part, err)
		}
		out = append(out, v)
	}
	return out, nil
}
