package gmle

import (
	"fmt"
	"math"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/prng"
)

// Options configures an adaptive estimation run over a networked tag system.
type Options struct {
	// Alpha is the confidence level α (default 0.95).
	Alpha float64
	// Beta is the relative error bound β (default 0.05).
	Beta float64
	// FrameSize is the accurate-phase frame size; 0 derives it from
	// (Alpha, Beta) via FrameSizeFor.
	FrameSize int
	// ProbeFrameSize is the rough-phase frame size (default 64). The rough
	// phase halves the sampling probability until a frame shows idle slots,
	// then the accurate phase begins.
	ProbeFrameSize int
	// MaxFrames bounds the total number of frames (default 64).
	MaxFrames int
	// Seed derives the per-frame request seeds.
	Seed uint64
	// LossProb forwards the unreliable-channel extension to the sessions.
	LossProb float64
	// Tracer, if non-nil, receives the underlying CCM sessions' events plus
	// one gmle phase event per frame (Phase "probe" or "accurate").
	Tracer obs.Tracer
}

func (o *Options) setDefaults() {
	if o.Alpha == 0 {
		o.Alpha = 0.95
	}
	if o.Beta == 0 {
		o.Beta = 0.05
	}
	if o.ProbeFrameSize == 0 {
		o.ProbeFrameSize = 64
	}
	if o.MaxFrames == 0 {
		o.MaxFrames = 64
	}
}

// Outcome reports an estimation run.
type Outcome struct {
	// Estimate is the final population estimate n̂.
	Estimate float64
	// RelHalfWidth is the achieved relative confidence half-width; the run
	// converged iff RelHalfWidth ≤ Beta.
	RelHalfWidth float64
	// Converged reports whether the accuracy requirement (eq. (2)) was met
	// within MaxFrames.
	Converged bool
	// Frames is the number of frames (CCM sessions) executed, including
	// rough-phase probes.
	Frames int
	// ProbeFrames is how many of them belonged to the rough phase.
	ProbeFrames int
	// Clock accumulates execution time over all sessions.
	Clock energy.Clock
	// Meter accumulates per-tag energy over all sessions.
	Meter *energy.Meter
	// Truncated reports that at least one session ended with data still in
	// flight (checking frame shorter than the network's true tier depth),
	// which biases the estimate low.
	Truncated bool
}

// EstimateWith runs the two-phase GMLE procedure of §IV over CCM sessions
// executed by run: a rough phase that halves the sampling probability until
// the frame desaturates, then accurate frames at the optimal load, re-tuned
// after every frame, until the confidence requirement (eq. (2)) is met.
// nTags sizes the energy meter (the number of deployed tags).
func EstimateWith(nTags int, run core.SessionRunner, opts Options) (*Outcome, error) {
	opts.setDefaults()
	if opts.Beta <= 0 || opts.Beta >= 1 || opts.Alpha <= 0 || opts.Alpha >= 1 {
		return nil, fmt.Errorf("gmle: beta %v and alpha %v must lie in (0,1)", opts.Beta, opts.Alpha)
	}
	accurateF := opts.FrameSize
	if accurateF == 0 {
		var err error
		accurateF, err = FrameSizeFor(opts.Beta, opts.Alpha)
		if err != nil {
			return nil, err
		}
	}

	out := &Outcome{Meter: energy.NewMeter(nTags)}
	var est Estimator
	seeds := prng.New(opts.Seed)

	runFrame := func(phase string, f int, p float64) (zeros int, err error) {
		cfg := core.Config{
			FrameSize: f,
			Seed:      seeds.Uint64(),
			Sampling:  p,
			LossProb:  opts.LossProb,
			LossSeed:  seeds.Uint64(),
			Tracer:    opts.Tracer,
		}
		res, err := run(cfg)
		if err != nil {
			return 0, err
		}
		out.Frames++
		out.Clock.Add(res.Clock)
		if err := out.Meter.Merge(res.Meter); err != nil {
			return 0, fmt.Errorf("gmle: frame %d: %w", out.Frames, err)
		}
		out.Truncated = out.Truncated || res.Truncated
		zeros = res.Bitmap.Zeros()
		if t := opts.Tracer; t != nil {
			t.Trace(obs.Event{
				Kind:      obs.KindPhase,
				Protocol:  obs.ProtoGMLE,
				Phase:     phase,
				Round:     out.Frames,
				FrameSize: f,
				Count:     zeros,
				Value:     p,
			})
		}
		return zeros, nil
	}

	// Rough phase: probe with geometrically decreasing p until the MLE is
	// finite. Saturated probes still enter the estimator — they are
	// evidence that n is large.
	p := 1.0
	nHat := math.NaN()
	for out.Frames < opts.MaxFrames {
		zeros, err := runFrame("probe", opts.ProbeFrameSize, p)
		if err != nil {
			return nil, err
		}
		if err := est.AddFrame(opts.ProbeFrameSize, p, zeros); err != nil {
			return nil, err
		}
		out.ProbeFrames++
		nHat, err = est.Estimate()
		if err == nil {
			break
		}
		if err != ErrSaturated {
			return nil, err
		}
		p /= 2
	}
	if math.IsNaN(nHat) {
		out.RelHalfWidth = math.Inf(1)
		return out, nil
	}

	// Accurate phase: frames at the optimal load for the current estimate.
	for out.Frames < opts.MaxFrames {
		out.Estimate = nHat
		out.RelHalfWidth = est.RelHalfWidth(nHat, opts.Alpha)
		if out.RelHalfWidth <= opts.Beta {
			out.Converged = true
			return out, nil
		}
		pAcc := SamplingFor(accurateF, nHat)
		zeros, err := runFrame("accurate", accurateF, pAcc)
		if err != nil {
			return nil, err
		}
		if err := est.AddFrame(accurateF, pAcc, zeros); err != nil {
			return nil, err
		}
		// The history already contains a frame with idle slots (the rough
		// phase ended on one), so the joint MLE is always finite here.
		nHat, err = est.Estimate()
		if err != nil {
			return nil, err
		}
	}
	out.Estimate = nHat
	out.RelHalfWidth = est.RelHalfWidth(nHat, opts.Alpha)
	out.Converged = out.RelHalfWidth <= opts.Beta
	return out, nil
}
