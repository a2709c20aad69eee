package experiment

import (
	"context"
	"fmt"
	"strings"

	"netags/internal/core"
	"netags/internal/geom"
	"netags/internal/obs"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// The unreliable-channel sweep — an extension beyond the paper, which
// assumes every busy slot is sensed (§V's detection guarantee silently
// depends on that). Loss turns busy slots idle, which CCM cannot
// distinguish from absence: delivery degrades and TRP starts accusing
// present tags. It reads Spec.LossValues (the axis), N, R, FrameSize (the
// TRP frame; 0 derives it per deployment with the paper's tolerance and
// delta), Radius, Trials and Seed, and measures CCM delivery and TRP false
// accusations with nothing actually missing. The channel's coin flips draw
// from the trial's Aux seed stream, so every worker count observes the
// same losses.

// LossRow reports one loss probability.
type LossRow struct {
	Loss float64
	// Delivery is the fraction of the true busy slots that reached the
	// reader.
	Delivery stats.Sample
	// FalsePositives is the number of present-and-reachable tags accused
	// per execution. A reliable channel accuses none only when the session
	// runs to completion: it stops after L_c = 2·EstimatedTiers rounds
	// (§III-E), so in a sparse deployment with more tiers than that the
	// deepest tiers' bits never arrive and TRP accuses present tags even
	// at loss 0.
	FalsePositives stats.Sample
	// Rounds is the session length in rounds (loss can both shorten — lost
	// checking-frame waves — and lengthen sessions).
	Rounds stats.Sample
}

type lossRowJSON struct {
	Loss           float64    `json:"loss"`
	Delivery       sampleJSON `json:"delivery"`
	FalsePositives sampleJSON `json:"false_positives"`
	Rounds         sampleJSON `json:"rounds"`
}

// jsonView is the row's JSON form.
func (row LossRow) jsonView() any {
	return lossRowJSON{
		Loss:           row.Loss,
		Delivery:       sampleView(&row.Delivery),
		FalsePositives: sampleView(&row.FalsePositives),
		Rounds:         sampleView(&row.Rounds),
	}
}

// LossResults is the sweep outcome.
type LossResults struct {
	Spec Spec
	Rows []LossRow
}

// lossTrial is one deployment's delivery and accusation measurements.
type lossTrial struct {
	tiers       int
	delivery    float64
	hasDelivery bool
	falsePos    float64
	rounds      float64
}

func (t lossTrial) tierCount() int { return t.tiers }

func validateLoss(s Spec) error {
	if s.N <= 0 {
		return fmt.Errorf("experiment: population N must be positive, got %d", s.N)
	}
	if !(s.R > 0) {
		return fmt.Errorf("experiment: inter-tag range %g must be positive", s.R)
	}
	for _, loss := range s.LossValues {
		if !(loss >= 0 && loss < 1) {
			return fmt.Errorf("experiment: loss probability %v outside [0,1)", loss)
		}
	}
	if s.FrameSize < 0 {
		return fmt.Errorf("experiment: frame size must be >= 0, got %d", s.FrameSize)
	}
	return nil
}

// lossSessions sizes the loss sweep's TRP session. A derived frame is
// sized for the deployment's reachable tags; it is given here for all N of
// them, the most a deployment can reach.
func lossSessions(s Spec) []Session {
	f := s.FrameSize
	if f == 0 {
		f, _ = trpFrameFor(s.N) // an N too small to size one fails its trials instead
	}
	return []Session{{s.N, f}}
}

// lossTrialFunc runs one TRP-CCM session over a lossy channel and checks
// its bitmap against the reliable one.
func lossTrialFunc(s Spec, tracer obs.Tracer) func(context.Context, float64, int, TrialSeeds) (lossTrial, error) {
	return func(_ context.Context, loss float64, trial int, seeds TrialSeeds) (lossTrial, error) {
		d := geom.NewUniformDisk(s.N, s.Radius, seeds.Deploy)
		nw, err := topology.Build(d, 0, topology.PaperRanges(s.R))
		if err != nil {
			return lossTrial{}, fmt.Errorf("loss=%v trial %d: %w", loss, trial, err)
		}
		inventory := make([]uint64, 0, nw.Reachable)
		for i := 0; i < nw.N(); i++ {
			if nw.Tier[i] > 0 {
				inventory = append(inventory, uint64(i)+1)
			}
		}
		f := s.FrameSize
		if f == 0 {
			if f, err = trpFrameFor(len(inventory)); err != nil {
				return lossTrial{}, err
			}
		}
		cc := core.Config{
			FrameSize: f,
			Seed:      seeds.Proto,
			Sampling:  1,
			LossProb:  loss,
			LossSeed:  seeds.Aux,
			Tracer:    tracer,
		}
		got, err := core.RunSession(nw, cc)
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
	}
}

// buildLossRow folds one loss probability's trials into its LossRow.
func buildLossRow(_ Spec, loss float64, trials []lossTrial) LossRow {
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

// String prints the sweep as its single table (Report).
func (r *LossResults) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Unreliable channel: CCM delivery and TRP false accusations (n=%d, r=%g, %d trials, nothing missing)\n",
		r.Spec.N, r.Spec.R, r.Spec.Trials)
	fmt.Fprintf(&b, "%8s  %12s  %18s  %8s\n", "loss", "delivery", "false accusations", "rounds")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8.2f  %11.1f%%  %18.1f  %8.1f\n",
			row.Loss, 100*row.Delivery.Mean(), row.FalsePositives.Mean(), row.Rounds.Mean())
	}
	return b.String() + "\n"
}
