// Package experiment is the harness that regenerates every table and figure
// of the paper's evaluation (§VI): it sweeps the inter-tag range r, runs the
// three protocols over freshly sampled deployments, aggregates per-trial
// metrics, and renders the paper's tables.
// Trials are fanned out over a worker pool (see runner.go) and every
// trial's seeds are position-derived: the deployment and protocol seeds of
// trial t at sweep point p are prng.DeriveSeed(cfg.Seed, key(p), t, stream),
// not draws from a shared generator in loop order. That makes the reported
// numbers independent of scheduling — `Workers: 1` and `Workers: N` produce
// bit-identical Results — and it means inserting, skipping, or reordering
// sweep points cannot reshuffle which deployment a given (point, trial)
// gets. TestSeedDerivationPinned pins the exact derivation.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/sicp"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// Protocol identifies one protocol under evaluation.
type Protocol string

// The protocols of §VI-B, plus the CICP extension.
const (
	GMLECCM Protocol = "GMLE-CCM"
	TRPCCM  Protocol = "TRP-CCM"
	SICP    Protocol = "SICP"
	CICP    Protocol = "CICP"
)

// Config parameterizes a sweep. The zero value is not valid; start from
// Paper() or Quick(). N, Radius, Trials, Seed, and Workers live in the
// embedded BaseConfig shared with the other sweeps.
type Config struct {
	BaseConfig
	// RValues are the inter-tag ranges to sweep.
	RValues []float64
	// GMLEFrame / TRPFrame are the application frame sizes. GMLE's sampling
	// probability is set to 1.59·f/N as in §VI-B.
	GMLEFrame int
	TRPFrame  int
	// Protocols selects what to run; empty means the paper's three.
	Protocols []Protocol
	// ContentionWindow forwards to SICP/CICP.
	ContentionWindow int
	// DisableIndicatorVector runs the CCM protocols without §III-D
	// silencing (the flooding ablation).
	DisableIndicatorVector bool
}

// Paper returns the full §VI-A configuration: n = 10,000 tags in a 30 m
// disk, r swept 2–10 m, 100 trials.
func Paper() Config {
	return Config{
		BaseConfig: BaseConfig{
			N:      10000,
			Radius: 30,
			Trials: 100,
			Seed:   1,
		},
		RValues:   []float64{2, 3, 4, 5, 6, 7, 8, 9, 10},
		GMLEFrame: gmle.PaperFrameSize,
		TRPFrame:  trp.PaperFrameSize,
		Protocols: []Protocol{SICP, GMLECCM, TRPCCM},
	}
}

// Quick returns a scaled-down configuration for tests and smoke runs:
// paper geometry, fewer trials.
func Quick() Config {
	c := Paper()
	c.Trials = 3
	c.RValues = []float64{2, 6, 10}
	return c
}

// Metrics aggregates one protocol's per-trial observations at one r.
type Metrics struct {
	Slots       stats.Sample // execution time, total slot count (Fig. 4)
	MaxSent     stats.Sample // Table I
	MaxReceived stats.Sample // Table II
	AvgSent     stats.Sample // Table III
	AvgReceived stats.Sample // Table IV
}

// Row holds everything measured at one inter-tag range.
type Row struct {
	R     float64
	Tiers stats.Sample // Fig. 3
	// ByProtocol maps each protocol to its metrics.
	ByProtocol map[Protocol]*Metrics
}

// Results is the output of a sweep.
type Results struct {
	Config Config
	Rows   []Row
}

// rangeTrial is one deployment's measurements, carried out of the worker
// pool and reduced into Row accumulators in grid order afterwards.
type rangeTrial struct {
	tiers  int
	protos []protoObs // indexed like the validated protocol list
}

// protoObs is one protocol's raw observations for one trial.
type protoObs struct {
	slots                int64
	maxSent, maxReceived int64
	avgSent, avgReceived float64
}

// PointInfo identifies one completed sweep point for the per-point hooks
// of the Partial runners: its grid index, the position-derived seeds each
// trial ran with, and the summed wall time of the point's work items.
type PointInfo struct {
	Index   int
	Seeds   []TrialSeeds
	Elapsed time.Duration
}

// RunContext executes the sweep, fanning the (r, trial) grid out over
// cfg.Workers goroutines (0 = GOMAXPROCS). Results are bit-identical for
// every worker count. observe, if non-nil, receives one Progress event per
// completed trial, serialized but in completion order.
func RunContext(ctx context.Context, cfg Config, observe func(Progress)) (*Results, error) {
	return RunContextPartial(ctx, cfg, nil, nil, observe)
}

// RunContextPartial is RunContext with resume support: points whose
// skip[i] is true are not run (their Rows come back with a nil ByProtocol
// map — the caller is expected to already hold their results), and
// pointDone, if non-nil, fires once per computed point, as soon as its
// last trial lands, with the point's fully aggregated Row. Because seeds
// are position-derived and per-point aggregation reads only that point's
// trials, a Row delivered through pointDone is bit-identical to the same
// Row of an uninterrupted run — the contract checkpoint/resume builds on.
func RunContextPartial(ctx context.Context, cfg Config, skip []bool, pointDone func(PointInfo, Row), observe func(Progress)) (*Results, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	if len(cfg.RValues) == 0 {
		return nil, fmt.Errorf("experiment: no r values in config %+v", cfg)
	}
	if cfg.GMLEFrame <= 0 || cfg.TRPFrame <= 0 {
		return nil, fmt.Errorf("experiment: frame sizes must be positive")
	}
	protocols := cfg.Protocols
	if len(protocols) == 0 {
		protocols = []Protocol{SICP, GMLECCM, TRPCCM}
	}
	for _, p := range protocols {
		switch p {
		case GMLECCM, TRPCCM, SICP, CICP:
		default:
			return nil, fmt.Errorf("experiment: unknown protocol %q", p)
		}
	}

	sweep := Sweep[float64, rangeTrial]{
		Base:   cfg.BaseConfig,
		Points: cfg.RValues,
		Key:    FloatKey,
		Skip:   skip,
		Run: func(ctx context.Context, r float64, trial int, seeds TrialSeeds) (rangeTrial, error) {
			d := geom.NewUniformDisk(cfg.N, cfg.Radius, seeds.Deploy)
			nw, err := topology.Build(d, 0, topology.PaperRanges(r))
			if err != nil {
				return rangeTrial{}, fmt.Errorf("r=%v trial %d: %w", r, trial, err)
			}
			in := func(i int) bool { return nw.Tier[i] > 0 }
			tr := rangeTrial{tiers: nw.K, protos: make([]protoObs, len(protocols))}
			for pi, p := range protocols {
				clock, meter, err := runProtocol(p, nw, cfg, seeds.Proto)
				if err != nil {
					return rangeTrial{}, fmt.Errorf("r=%v trial %d %s: %w", r, trial, p, err)
				}
				sum := meter.Summarize(in)
				tr.protos[pi] = protoObs{
					slots:       clock.Total(),
					maxSent:     sum.MaxSent,
					maxReceived: sum.MaxReceived,
					avgSent:     sum.AvgSent,
					avgReceived: sum.AvgReceived,
				}
			}
			return tr, nil
		},
		Event: func(r float64, trial int, tr rangeTrial, elapsed time.Duration) Progress {
			return Progress{
				Sweep: "range", R: r, Trial: trial, Trials: cfg.Trials,
				Protocols: protocols, Tiers: tr.tiers, Elapsed: elapsed,
			}
		},
	}
	if pointDone != nil {
		sweep.PointDone = func(p SweepPoint[float64, rangeTrial]) {
			pointDone(PointInfo{Index: p.Index, Seeds: p.Seeds, Elapsed: p.Elapsed},
				buildRangeRow(p.Point, protocols, p.Trials))
		}
	}
	grid, err := RunSweep(ctx, sweep, observe)
	if err != nil {
		return nil, err
	}

	res := &Results{Config: cfg}
	for pi, r := range cfg.RValues {
		if skip != nil && skip[pi] {
			res.Rows = append(res.Rows, Row{R: r})
			continue
		}
		res.Rows = append(res.Rows, buildRangeRow(r, protocols, grid[pi]))
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].R < res.Rows[j].R })
	return res, nil
}

// buildRangeRow folds one point's trials (in trial order) into its Row.
// It reads nothing outside the point, so the Row is a pure function of
// (point, trials) — per-point results are content-addressable.
func buildRangeRow(r float64, protocols []Protocol, trials []rangeTrial) Row {
	row := Row{R: r, ByProtocol: make(map[Protocol]*Metrics, len(protocols))}
	for _, p := range protocols {
		row.ByProtocol[p] = &Metrics{}
	}
	for _, tr := range trials {
		row.Tiers.Add(float64(tr.tiers))
		for i, p := range protocols {
			o, m := tr.protos[i], row.ByProtocol[p]
			m.Slots.Add(float64(o.slots))
			m.MaxSent.Add(float64(o.maxSent))
			m.MaxReceived.Add(float64(o.maxReceived))
			m.AvgSent.Add(o.avgSent)
			m.AvgReceived.Add(o.avgReceived)
		}
	}
	return row
}

func runProtocol(p Protocol, nw *topology.Network, cfg Config, seed uint64) (energy.Clock, *energy.Meter, error) {
	switch p {
	case GMLECCM:
		r, err := runCCM(nw, cfg.GMLEFrame, gmle.SamplingFor(cfg.GMLEFrame, float64(cfg.N)), seed, cfg.DisableIndicatorVector, cfg.Tracer)
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.clock, r.meter, nil
	case TRPCCM:
		r, err := runCCM(nw, cfg.TRPFrame, 1, seed, cfg.DisableIndicatorVector, cfg.Tracer)
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.clock, r.meter, nil
	case SICP:
		r, err := sicp.Collect(nw, sicp.Options{Seed: seed, ContentionWindow: cfg.ContentionWindow, Tracer: cfg.Tracer})
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.Clock, r.Meter, nil
	case CICP:
		r, err := sicp.CollectCICP(nw, sicp.Options{Seed: seed, ContentionWindow: cfg.ContentionWindow, Tracer: cfg.Tracer})
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.Clock, r.Meter, nil
	}
	return energy.Clock{}, nil, fmt.Errorf("experiment: unknown protocol %q", p)
}

// runnerPool amortizes core session scratch across the sweep's worker pool:
// trials executing on the same worker reuse one arena instead of allocating
// fresh per-round state every session. Which Runner serves which trial never
// affects results — Runners are behaviorally identical to fresh state
// (simtest's TestRunnerNoStateBleed pins this) — so pooling preserves the
// package's bit-identical-across-Workers guarantee.
var runnerPool = sync.Pool{New: func() any { return core.NewRunner() }}

// runSessionPooled is core.RunSession through the worker-shared arena pool.
func runSessionPooled(nw *topology.Network, cfg core.Config) (*core.Result, error) {
	r := runnerPool.Get().(*core.Runner)
	defer runnerPool.Put(r)
	return r.Run(nw, cfg)
}

type ccmRun struct {
	clock energy.Clock
	meter *energy.Meter
}

func runCCM(nw *topology.Network, frame int, sampling float64, seed uint64, noIndicator bool, tracer obs.Tracer) (*ccmRun, error) {
	cfg := core.Config{
		FrameSize:              frame,
		Seed:                   seed,
		Sampling:               sampling,
		DisableIndicatorVector: noIndicator,
		Tracer:                 tracer,
	}
	if noIndicator {
		// Flooding needs more rounds than Algorithm 1's L_c bound: the
		// inner tags' bits keep rippling outward after the reader has
		// everything.
		cfg.MaxRounds = 4 * nw.Ranges.CheckingFrameLen()
	}
	res, err := runSessionPooled(nw, cfg)
	if err != nil {
		return nil, err
	}
	return &ccmRun{clock: res.Clock, meter: res.Meter}, nil
}

// Render helpers ------------------------------------------------------------

// RenderFig3 prints the tier count versus r (Fig. 3).
func (r *Results) RenderFig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: number of tiers (n=%d, %d trials)\n", r.Config.N, r.Config.Trials)
	fmt.Fprintf(&b, "%6s  %s\n", "r (m)", "tiers (mean ± ci95)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6g  %.2f ± %.2f\n", row.R, row.Tiers.Mean(), row.Tiers.CI95())
	}
	return b.String()
}

// RenderFig4 prints execution time versus r for every protocol (Fig. 4).
func (r *Results) RenderFig4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: execution time in slots (n=%d, %d trials)\n", r.Config.N, r.Config.Trials)
	protos := r.protocols()
	fmt.Fprintf(&b, "%6s", "r (m)")
	for _, p := range protos {
		fmt.Fprintf(&b, "  %12s", p)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6g", row.R)
		for _, p := range protos {
			fmt.Fprintf(&b, "  %12.0f", row.ByProtocol[p].Slots.Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TableMetric selects which paper table to render.
type TableMetric int

// The four energy tables of §VI-B.
const (
	TableMaxSent TableMetric = iota + 1
	TableMaxReceived
	TableAvgSent
	TableAvgReceived
)

func (t TableMetric) String() string {
	switch t {
	case TableMaxSent:
		return "Table I: maximum number of bits sent per tag"
	case TableMaxReceived:
		return "Table II: maximum number of bits received per tag"
	case TableAvgSent:
		return "Table III: average number of bits sent per tag"
	case TableAvgReceived:
		return "Table IV: average number of bits received per tag"
	}
	return "unknown table"
}

func (m *Metrics) value(t TableMetric) float64 {
	switch t {
	case TableMaxSent:
		return m.MaxSent.Mean()
	case TableMaxReceived:
		return m.MaxReceived.Mean()
	case TableAvgSent:
		return m.AvgSent.Mean()
	case TableAvgReceived:
		return m.AvgReceived.Mean()
	}
	return 0
}

// RenderTable prints one of the paper's four energy tables: protocols as
// rows, r values as columns, exactly like the paper's layout.
func (r *Results) RenderTable(t TableMetric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, %d trials)\n", t, r.Config.N, r.Config.Trials)
	fmt.Fprintf(&b, "%-10s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  r=%-8g", row.R)
	}
	b.WriteByte('\n')
	for _, p := range r.protocols() {
		fmt.Fprintf(&b, "%-10s", p)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-10.1f", row.ByProtocol[p].value(t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV dumps every metric in long form for external plotting.
func (r *Results) CSV() string {
	var b strings.Builder
	b.WriteString("r,protocol,metric,mean,ci95,min,max\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%g,,tiers,%g,%g,%g,%g\n",
			row.R, row.Tiers.Mean(), row.Tiers.CI95(), row.Tiers.Min(), row.Tiers.Max())
		for _, p := range r.protocols() {
			m := row.ByProtocol[p]
			named := []struct {
				name string
				s    *stats.Sample
			}{
				{"slots", &m.Slots}, {"max_sent", &m.MaxSent},
				{"max_received", &m.MaxReceived}, {"avg_sent", &m.AvgSent},
				{"avg_received", &m.AvgReceived},
			}
			for _, ns := range named {
				fmt.Fprintf(&b, "%g,%s,%s,%g,%g,%g,%g\n",
					row.R, p, ns.name, ns.s.Mean(), ns.s.CI95(), ns.s.Min(), ns.s.Max())
			}
		}
	}
	return b.String()
}

// protocols returns the protocols present in the results, in a stable order.
func (r *Results) protocols() []Protocol {
	if len(r.Rows) == 0 {
		return nil
	}
	order := []Protocol{SICP, CICP, GMLECCM, TRPCCM}
	var out []Protocol
	for _, p := range order {
		if _, ok := r.Rows[0].ByProtocol[p]; ok {
			out = append(out, p)
		}
	}
	return out
}
