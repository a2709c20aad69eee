// Package lof implements the Lottery-Frame cardinality estimator of Qian et
// al. ("Cardinality estimation for large-scale RFID systems", PerCom 2008 —
// the paper's reference [2]) on top of CCM.
//
// LoF uses a different information model than GMLE: instead of one uniform
// slot, each tag hashes itself into slot j with probability 2^-(j+1) — a
// Flajolet–Martin sketch laid out as a time frame. The position of the first
// idle slot estimates log2(n). It demonstrates that CCM carries any
// bitmap-shaped protocol unchanged: only the SlotPicker differs.
//
// LoF needs only O(log n) slots per frame — far shorter frames than GMLE —
// but has a high per-frame variance (σ ≈ 1.12 bits of log2 n), so many
// frames are averaged. The estimator-comparison benchmark quantifies this
// trade against GMLE; the paper's §IV-A history (estimators mattering less
// than their surrounding machinery) is visible in the numbers.
package lof

import (
	"fmt"
	"math"
	"math/bits"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/prng"
)

// fmCorrection is the Flajolet–Martin bias constant φ: E[2^Z] ≈ φ·n.
const fmCorrection = 0.77351

// DefaultFrameSize comfortably holds populations up to 2^28.
const DefaultFrameSize = 32

// Picker returns the lottery slot choice: tag id lands in slot j with
// probability 2^-(j+1) (the count of trailing zeros of its hash), clamped
// to the frame.
func Picker(seed uint64, frameSize int) core.SlotPicker {
	return func(_ int, id uint64) []int {
		h := prng.HashID(id, seed)
		j := bits.TrailingZeros64(h)
		if j >= frameSize {
			j = frameSize - 1
		}
		return []int{j}
	}
}

// FirstIdle returns the index of the lowest idle slot of a frame bitmap
// (the Z statistic), or the frame length if every slot is busy.
func FirstIdle(busy func(i int) bool, frameSize int) int {
	for i := 0; i < frameSize; i++ {
		if !busy(i) {
			return i
		}
	}
	return frameSize
}

// Options configures an estimation run.
type Options struct {
	// Frames is the number of lottery frames averaged (default 32).
	Frames int
	// FrameSize is the slots per frame (default 32; must exceed
	// log2 of the population for an unbiased read).
	FrameSize int
	// Seed derives the per-frame hash seeds.
	Seed uint64
	// LossProb forwards the unreliable-channel extension.
	LossProb float64
	// Tracer, if non-nil, receives the underlying CCM sessions' events plus
	// one lof phase event per frame carrying the Z statistic.
	Tracer obs.Tracer
}

// Outcome reports an estimation run.
type Outcome struct {
	// Estimate is n̂ = 2^mean(Z) / φ.
	Estimate float64
	// MeanZ is the averaged first-idle statistic.
	MeanZ float64
	// Frames is the number of CCM sessions executed.
	Frames int
	// Clock and Meter accumulate the session costs.
	Clock energy.Clock
	Meter *energy.Meter
	// Truncated reports that at least one session ended incomplete.
	Truncated bool
}

// EstimateWith runs LoF over CCM sessions executed by run; nTags sizes the
// energy meter (the number of deployed tags).
func EstimateWith(nTags int, run core.SessionRunner, opts Options) (*Outcome, error) {
	if opts.Frames == 0 {
		opts.Frames = 32
	}
	if opts.FrameSize == 0 {
		opts.FrameSize = DefaultFrameSize
	}
	if opts.Frames < 0 || opts.FrameSize <= 0 {
		return nil, fmt.Errorf("lof: invalid frames %d / frame size %d", opts.Frames, opts.FrameSize)
	}
	out := &Outcome{Meter: energy.NewMeter(nTags)}
	seeds := prng.New(opts.Seed)
	sumZ := 0.0
	for i := 0; i < opts.Frames; i++ {
		seed := seeds.Uint64()
		res, err := run(core.Config{
			FrameSize: opts.FrameSize,
			Seed:      seed,
			Picker:    Picker(seed, opts.FrameSize),
			LossProb:  opts.LossProb,
			LossSeed:  seeds.Uint64(),
			Tracer:    opts.Tracer,
		})
		if err != nil {
			return nil, err
		}
		out.Frames++
		out.Clock.Add(res.Clock)
		if err := out.Meter.Merge(res.Meter); err != nil {
			return nil, fmt.Errorf("lof: frame %d: %w", out.Frames, err)
		}
		out.Truncated = out.Truncated || res.Truncated
		z := FirstIdle(res.Bitmap.Get, opts.FrameSize)
		sumZ += float64(z)
		if t := opts.Tracer; t != nil {
			t.Trace(obs.Event{
				Kind:      obs.KindPhase,
				Protocol:  obs.ProtoLoF,
				Phase:     "frame",
				Round:     out.Frames,
				FrameSize: opts.FrameSize,
				Count:     z,
				Seed:      seed,
			})
		}
	}
	out.MeanZ = sumZ / float64(out.Frames)
	out.Estimate = math.Exp2(out.MeanZ) / fmCorrection
	return out, nil
}
