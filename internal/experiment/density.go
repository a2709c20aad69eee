package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/sicp"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// DensityConfig parameterizes a population sweep — an extension beyond the
// paper, which fixes n = 10,000. CCM's air time is governed by the frame
// size and tier count, not the population, while SICP's grows linearly with
// the IDs it must haul; sweeping n makes that scaling visible.
//
// Radius, Trials, Seed, and Workers come from the embedded BaseConfig;
// BaseConfig.N is ignored — NValues supplies the populations.
type DensityConfig struct {
	BaseConfig
	// NValues are the populations to sweep.
	NValues []int
	// R is the inter-tag range (paper geometry by default).
	R float64
}

// DensityRow reports one population.
type DensityRow struct {
	N int
	// GMLESlots / TRPSlots / SICPSlots are the execution times with frames
	// sized for this population.
	GMLESlots stats.Sample
	TRPSlots  stats.Sample
	SICPSlots stats.Sample
	// Tiers tracks the (density-dependent) tier count.
	Tiers stats.Sample
}

// DensityResults is the sweep outcome.
type DensityResults struct {
	Config DensityConfig
	Rows   []DensityRow
}

// densityPoint is one population with its per-n derived frame sizes.
type densityPoint struct {
	n, gmleF, trpF int
}

// densityTrial is one deployment's slot counts.
type densityTrial struct {
	tiers           int
	gmle, trp, sicp int64
}

// RunDensitySweepContext measures how each protocol's air time scales
// with the population, over cfg.Workers goroutines. Frame sizes are re-derived per n, exactly as the paper sizes
// its frames for n = 10,000.
func RunDensitySweepContext(ctx context.Context, cfg DensityConfig, observe func(Progress)) (*DensityResults, error) {
	return RunDensitySweepPartial(ctx, cfg, nil, nil, observe)
}

// RunDensitySweepPartial is RunDensitySweepContext with resume support —
// the same contract as RunContextPartial: skipped points come back as
// zero-valued rows (only N set) and pointDone fires once per computed
// point with its fully aggregated DensityRow.
func RunDensitySweepPartial(ctx context.Context, cfg DensityConfig, skip []bool, pointDone func(PointInfo, DensityRow), observe func(Progress)) (*DensityResults, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	if len(cfg.NValues) == 0 || cfg.R <= 0 {
		return nil, fmt.Errorf("experiment: incomplete density config %+v", cfg)
	}
	points := make([]densityPoint, len(cfg.NValues))
	for i, n := range cfg.NValues {
		if n <= 0 {
			return nil, fmt.Errorf("experiment: population %d must be positive", n)
		}
		gmleF, err := gmle.FrameSizeFor(0.05, 0.95)
		if err != nil {
			return nil, err
		}
		tol := n / 200
		if tol == 0 {
			tol = 1
		}
		trpF, err := trp.FrameSizeFor(n, tol, 0.95)
		if err != nil {
			return nil, err
		}
		points[i] = densityPoint{n: n, gmleF: gmleF, trpF: trpF}
	}

	sweep := Sweep[densityPoint, densityTrial]{
		Base:   cfg.BaseConfig,
		Points: points,
		Skip:   skip,
		Key:    func(p densityPoint) uint64 { return IntKey(p.n) },
		Run: func(ctx context.Context, p densityPoint, trial int, seeds TrialSeeds) (densityTrial, error) {
			d := geom.NewUniformDisk(p.n, cfg.Radius, seeds.Deploy)
			nw, err := topology.Build(d, 0, topology.PaperRanges(cfg.R))
			if err != nil {
				return densityTrial{}, fmt.Errorf("n=%d trial %d: %w", p.n, trial, err)
			}
			gm, _, err := runProtocolSized(GMLECCM, nw, p.gmleF, gmle.SamplingFor(p.gmleF, float64(p.n)), seeds.Proto, cfg.Tracer)
			if err != nil {
				return densityTrial{}, err
			}
			tr, _, err := runProtocolSized(TRPCCM, nw, p.trpF, 1, seeds.Proto, cfg.Tracer)
			if err != nil {
				return densityTrial{}, err
			}
			si, _, err := runProtocolSized(SICP, nw, 0, 0, seeds.Proto, cfg.Tracer)
			if err != nil {
				return densityTrial{}, err
			}
			return densityTrial{tiers: nw.K, gmle: gm, trp: tr, sicp: si}, nil
		},
		Event: func(p densityPoint, trial int, dt densityTrial, elapsed time.Duration) Progress {
			return Progress{
				Sweep: "density", N: p.n, Trial: trial, Trials: cfg.Trials,
				Protocols: []Protocol{GMLECCM, TRPCCM, SICP}, Tiers: dt.tiers, Elapsed: elapsed,
			}
		},
	}
	if pointDone != nil {
		sweep.PointDone = func(p SweepPoint[densityPoint, densityTrial]) {
			pointDone(PointInfo{Index: p.Index, Seeds: p.Seeds, Elapsed: p.Elapsed},
				buildDensityRow(p.Point.n, p.Trials))
		}
	}
	grid, err := RunSweep(ctx, sweep, observe)
	if err != nil {
		return nil, err
	}

	res := &DensityResults{Config: cfg}
	for pi, p := range points {
		if skip != nil && skip[pi] {
			res.Rows = append(res.Rows, DensityRow{N: p.n})
			continue
		}
		res.Rows = append(res.Rows, buildDensityRow(p.n, grid[pi]))
	}
	return res, nil
}

// buildDensityRow folds one population's trials into its DensityRow.
func buildDensityRow(n int, trials []densityTrial) DensityRow {
	row := DensityRow{N: n}
	for _, dt := range trials {
		row.Tiers.Add(float64(dt.tiers))
		row.GMLESlots.Add(float64(dt.gmle))
		row.TRPSlots.Add(float64(dt.trp))
		row.SICPSlots.Add(float64(dt.sicp))
	}
	return row
}

// runProtocolSized runs one protocol with explicit frame parameters and
// returns its slot count.
func runProtocolSized(p Protocol, nw *topology.Network, frame int, sampling float64, seed uint64, tracer obs.Tracer) (int64, int64, error) {
	switch p {
	case GMLECCM, TRPCCM:
		r, err := runCCM(nw, frame, sampling, seed, false, tracer)
		if err != nil {
			return 0, 0, err
		}
		return r.clock.Total(), 0, nil
	case SICP:
		r, err := sicp.Collect(nw, sicp.Options{Seed: seed, Tracer: tracer})
		if err != nil {
			return 0, 0, err
		}
		return r.Clock.Total(), 0, nil
	}
	return 0, 0, fmt.Errorf("experiment: unsupported protocol %q in density sweep", p)
}

// Render prints the sweep as a table.
func (r *DensityResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Population sweep: execution time in slots (r=%g, %d trials, frames re-sized per n)\n",
		r.Config.R, r.Config.Trials)
	fmt.Fprintf(&b, "%8s  %6s  %12s  %12s  %12s\n", "n", "tiers", "SICP", "GMLE-CCM", "TRP-CCM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %6.1f  %12.0f  %12.0f  %12.0f\n",
			row.N, row.Tiers.Mean(), row.SICPSlots.Mean(), row.GMLESlots.Mean(), row.TRPSlots.Mean())
	}
	return b.String()
}
