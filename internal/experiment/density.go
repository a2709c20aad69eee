package experiment

import (
	"context"
	"fmt"
	"strings"

	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// The population sweep — an extension beyond the paper, which fixes
// n = 10,000. CCM's air time is governed by the frame size and tier count,
// not the population, while SICP's grows linearly with the IDs it must
// haul; sweeping n makes that scaling visible. It reads Spec.NValues (the
// axis), R, Radius, Trials and Seed, and re-derives the frame sizes per n,
// exactly as the paper sizes its frames for n = 10,000.

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

type densityRowJSON struct {
	N         int        `json:"n"`
	Tiers     sampleJSON `json:"tiers"`
	SICPSlots sampleJSON `json:"sicp_slots"`
	GMLESlots sampleJSON `json:"gmle_slots"`
	TRPSlots  sampleJSON `json:"trp_slots"`
}

// jsonView is the row's JSON form.
func (row DensityRow) jsonView() any {
	return densityRowJSON{
		N:         row.N,
		Tiers:     sampleView(&row.Tiers),
		SICPSlots: sampleView(&row.SICPSlots),
		GMLESlots: sampleView(&row.GMLESlots),
		TRPSlots:  sampleView(&row.TRPSlots),
	}
}

// DensityResults is the sweep outcome.
type DensityResults struct {
	Spec Spec
	Rows []DensityRow
}

// densityTrial is one deployment's slot counts.
type densityTrial struct {
	tiers           int
	gmle, trp, sicp int64
}

func (t densityTrial) tierCount() int { return t.tiers }

func validateDensity(s Spec) error {
	for _, n := range s.NValues {
		if n <= 0 {
			return fmt.Errorf("experiment: population %d must be positive", n)
		}
		if _, err := densityFrames(n); err != nil {
			return fmt.Errorf("experiment: population %d: %w", n, err)
		}
	}
	if !(s.R > 0) {
		return fmt.Errorf("experiment: inter-tag range %g must be positive", s.R)
	}
	return nil
}

// densityTrialFunc measures each protocol's air time over one deployment of
// n tags, with frames sized for n.
func densityTrialFunc(s Spec, tracer obs.Tracer) func(context.Context, int, int, TrialSeeds) (densityTrial, error) {
	return func(_ context.Context, n int, trial int, seeds TrialSeeds) (densityTrial, error) {
		sized, err := densityFrames(n)
		if err != nil {
			return densityTrial{}, err
		}
		d := geom.NewUniformDisk(n, s.Radius, seeds.Deploy)
		nw, err := topology.Build(d, 0, topology.PaperRanges(s.R))
		if err != nil {
			return densityTrial{}, fmt.Errorf("n=%d trial %d: %w", n, trial, err)
		}
		dt := densityTrial{tiers: nw.K}
		for _, run := range []struct {
			p    Protocol
			into *int64
		}{{GMLECCM, &dt.gmle}, {TRPCCM, &dt.trp}, {SICP, &dt.sicp}} {
			clock, _, err := runProtocol(run.p, nw, sized, tracer, seeds.Proto)
			if err != nil {
				return densityTrial{}, err
			}
			*run.into = clock.Total()
		}
		return dt, nil
	}
}

// densityFrames sizes the protocols' frames for a population of n, as the
// paper sizes them for n = 10,000: GMLE for β = 5 %, α = 95 %, and TRP by
// trpFrameFor.
func densityFrames(n int) (Spec, error) {
	sized := Spec{N: n}
	var err error
	if sized.GMLEFrame, err = gmle.FrameSizeFor(0.05, 0.95); err != nil {
		return Spec{}, err
	}
	if sized.TRPFrame, err = trpFrameFor(n); err != nil {
		return Spec{}, err
	}
	return sized, nil
}

// trpFrameFor sizes a TRP frame for an inventory of n tags, as the paper
// sizes it for n = 10,000: to detect a 0.5 % shortfall (at least one tag)
// with δ = 95 %.
func trpFrameFor(n int) (int, error) {
	return trp.FrameSizeFor(n, max(n/200, 1), 0.95)
}

// densitySessions sizes each population's two CCM sessions as its trials
// do. A population too small to size its TRP frame has none; validation
// rejects it.
func densitySessions(s Spec) []Session {
	var out []Session
	for _, n := range s.NValues {
		if sized, err := densityFrames(n); err == nil {
			out = append(out, Session{n, sized.GMLEFrame}, Session{n, sized.TRPFrame})
		}
	}
	return out
}

// buildDensityRow folds one population's trials into its DensityRow.
func buildDensityRow(_ Spec, n int, trials []densityTrial) DensityRow {
	row := DensityRow{N: n}
	for _, dt := range trials {
		row.Tiers.Add(float64(dt.tiers))
		row.GMLESlots.Add(float64(dt.gmle))
		row.TRPSlots.Add(float64(dt.trp))
		row.SICPSlots.Add(float64(dt.sicp))
	}
	return row
}

// String prints the sweep as its single table (Report).
func (r *DensityResults) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Population sweep: execution time in slots (r=%g, %d trials, frames re-sized per n)\n",
		r.Spec.R, r.Spec.Trials)
	fmt.Fprintf(&b, "%8s  %6s  %12s  %12s  %12s\n", "n", "tiers", "SICP", "GMLE-CCM", "TRP-CCM")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d  %6.1f  %12.0f  %12.0f  %12.0f\n",
			row.N, row.Tiers.Mean(), row.SICPSlots.Mean(), row.GMLESlots.Mean(), row.TRPSlots.Mean())
	}
	return b.String() + "\n"
}
