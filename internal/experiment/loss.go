package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// LossConfig parameterizes the unreliable-channel sweep — an extension
// beyond the paper, which assumes every busy slot is sensed (§V's detection
// guarantee silently depends on that). Loss turns busy slots idle, which
// CCM cannot distinguish from absence: delivery degrades and TRP starts
// accusing present tags.
//
// N, Radius, Trials, Seed, and Workers come from the embedded BaseConfig.
type LossConfig struct {
	BaseConfig
	// R is the inter-tag range.
	R float64
	// LossValues are the per-reception loss probabilities to sweep.
	LossValues []float64
	// FrameSize is the TRP frame (0 = derive for N with the paper's
	// tolerance and delta).
	FrameSize int
}

// LossRow reports one loss probability.
type LossRow struct {
	Loss float64
	// Delivery is the fraction of the true busy slots that reached the
	// reader.
	Delivery stats.Sample
	// FalsePositives is the number of present-and-reachable tags accused
	// per execution (0 under a reliable channel).
	FalsePositives stats.Sample
	// ExtraRounds is the session length in rounds (loss can both shorten —
	// lost checking-frame waves — and lengthen sessions).
	Rounds stats.Sample
}

// LossResults is the sweep outcome.
type LossResults struct {
	Config LossConfig
	Rows   []LossRow
}

// lossTrial is one deployment's delivery and accusation measurements.
type lossTrial struct {
	tiers       int
	delivery    float64
	hasDelivery bool
	falsePos    float64
	rounds      float64
}

// RunLossSweepContext measures CCM delivery and TRP false accusations as
// the channel degrades, with nothing actually missing, over cfg.Workers
// goroutines. The channel's coin flips draw from the trial's Aux seed
// stream, so every worker count observes the same losses.
func RunLossSweepContext(ctx context.Context, cfg LossConfig, observe func(Progress)) (*LossResults, error) {
	return RunLossSweepPartial(ctx, cfg, nil, nil, observe)
}

// RunLossSweepPartial is RunLossSweepContext with resume support — the
// same contract as RunContextPartial: skipped points come back as
// zero-valued rows (only Loss set) and pointDone fires once per computed
// point with its fully aggregated LossRow.
func RunLossSweepPartial(ctx context.Context, cfg LossConfig, skip []bool, pointDone func(PointInfo, LossRow), observe func(Progress)) (*LossResults, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	if cfg.R <= 0 || len(cfg.LossValues) == 0 {
		return nil, fmt.Errorf("experiment: incomplete loss config %+v", cfg)
	}
	for _, loss := range cfg.LossValues {
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("experiment: loss probability %v outside [0,1)", loss)
		}
	}

	sweep := Sweep[float64, lossTrial]{
		Base:   cfg.BaseConfig,
		Points: cfg.LossValues,
		Skip:   skip,
		Key:    FloatKey,
		Run: func(ctx context.Context, loss float64, trial int, seeds TrialSeeds) (lossTrial, error) {
			d := geom.NewUniformDisk(cfg.N, cfg.Radius, seeds.Deploy)
			nw, err := topology.Build(d, 0, topology.PaperRanges(cfg.R))
			if err != nil {
				return lossTrial{}, fmt.Errorf("loss=%v trial %d: %w", loss, trial, err)
			}
			inventory := make([]uint64, 0, nw.Reachable)
			for i := 0; i < nw.N(); i++ {
				if nw.Tier[i] > 0 {
					inventory = append(inventory, uint64(i)+1)
				}
			}
			f := cfg.FrameSize
			if f == 0 {
				tol := len(inventory) / 200
				if tol == 0 {
					tol = 1
				}
				f, err = trp.FrameSizeFor(len(inventory), tol, 0.95)
				if err != nil {
					return lossTrial{}, err
				}
			}
			cc := core.Config{
				FrameSize: f,
				Seed:      seeds.Proto,
				Sampling:  1,
				LossProb:  loss,
				LossSeed:  seeds.Aux,
				Tracer:    cfg.Tracer,
			}
			got, err := runSessionPooled(nw, cc)
			if err != nil {
				return lossTrial{}, err
			}
			truthCfg := cc
			truthCfg.LossProb = 0
			truthCfg.Tracer = nil // reference computation, not a protocol run
			truth, err := core.DirectBitmap(nw, truthCfg)
			if err != nil {
				return lossTrial{}, err
			}
			lt := lossTrial{tiers: nw.K, rounds: float64(got.Rounds)}
			if truth.Count() > 0 {
				lt.delivery = float64(got.Bitmap.Count()) / float64(truth.Count())
				lt.hasDelivery = true
			}
			plan, err := trp.NewPlan(inventory, f, seeds.Proto)
			if err != nil {
				return lossTrial{}, err
			}
			det, err := plan.Detect(got.Bitmap)
			if err != nil {
				return lossTrial{}, err
			}
			lt.falsePos = float64(len(det.Suspects))
			return lt, nil
		},
		Event: func(loss float64, trial int, lt lossTrial, elapsed time.Duration) Progress {
			return Progress{
				Sweep: "loss", R: cfg.R, Loss: loss, Trial: trial, Trials: cfg.Trials,
				Protocols: []Protocol{TRPCCM}, Tiers: lt.tiers, Elapsed: elapsed,
			}
		},
	}
	if pointDone != nil {
		sweep.PointDone = func(p SweepPoint[float64, lossTrial]) {
			pointDone(PointInfo{Index: p.Index, Seeds: p.Seeds, Elapsed: p.Elapsed},
				buildLossRow(p.Point, p.Trials))
		}
	}
	grid, err := RunSweep(ctx, sweep, observe)
	if err != nil {
		return nil, err
	}

	res := &LossResults{Config: cfg}
	for pi, loss := range cfg.LossValues {
		if skip != nil && skip[pi] {
			res.Rows = append(res.Rows, LossRow{Loss: loss})
			continue
		}
		res.Rows = append(res.Rows, buildLossRow(loss, grid[pi]))
	}
	return res, nil
}

// buildLossRow folds one loss probability's trials into its LossRow.
func buildLossRow(loss float64, trials []lossTrial) LossRow {
	row := LossRow{Loss: loss}
	for _, lt := range trials {
		if lt.hasDelivery {
			row.Delivery.Add(lt.delivery)
		}
		row.FalsePositives.Add(lt.falsePos)
		row.Rounds.Add(lt.rounds)
	}
	return row
}

// Render prints the sweep as a table.
func (r *LossResults) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Unreliable channel: CCM delivery and TRP false accusations (n=%d, r=%g, %d trials, nothing missing)\n",
		r.Config.N, r.Config.R, r.Config.Trials)
	fmt.Fprintf(&b, "%8s  %12s  %18s  %8s\n", "loss", "delivery", "false accusations", "rounds")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f  %11.1f%%  %18.1f  %8.1f\n",
			row.Loss, 100*row.Delivery.Mean(), row.FalsePositives.Mean(), row.Rounds.Mean())
	}
	return b.String()
}
