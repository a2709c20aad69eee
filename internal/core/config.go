// Package core implements the paper's primary contribution: the
// Collision-resistant Communication Model (CCM, §III and Algorithm 1).
//
// A CCM session collects an f-bit bitmap from a multi-hop network of
// state-free tags. In each round the reader broadcasts a request, tags
// transmit one bit in the slots they must relay, every listening tag treats a
// busy slot as the bit 1 regardless of how many neighbors collided in it, the
// reader broadcasts a cumulative indicator vector to silence already-known
// slots, and a short checking frame decides whether another round is needed.
// Information moves one tier closer to the reader per round, and collisions
// merge data benignly instead of destroying it.
package core

import (
	"fmt"

	"netags/internal/obs"
	"netags/internal/topology"
)

// SlotPicker chooses the slots a tag sets in the information bitmap during
// the first round. tagIdx is the tag's index in the deployment and id its
// 96-bit identifier (truncated to 64 bits). Returning nil means the tag does
// not participate. The picker must be a pure function of its arguments so
// that the reader can reproduce tags' choices (Theorem 1 and TRP prediction
// both depend on this).
type SlotPicker func(tagIdx int, id uint64) []int

// Config parameterizes one CCM session.
type Config struct {
	// FrameSize is f, the number of slots (= bits) in each frame.
	FrameSize int

	// Seed identifies the request; tags hash their ID with it to pick slots.
	Seed uint64

	// Sampling is the participation probability p used by the default
	// single-slot picker (GMLE uses p < 1, TRP uses p = 1). Ignored when
	// Picker is set.
	Sampling float64

	// Picker overrides the default slot choice. Applications that set
	// multiple bits per tag (e.g. Bloom-style tag search) install their own.
	Picker SlotPicker

	// IDs holds per-tag identifiers. If nil, tag i has ID uint64(i)+1.
	IDs []uint64

	// DisableIndicatorVector turns off the §III-D silencing broadcast, for
	// the flooding ablation. The session still terminates (each tag
	// transmits a given slot at most once) but relays far more.
	DisableIndicatorVector bool

	// CheckingFrameLen overrides L_c; 0 means the paper's empirical
	// 2 × (1 + ⌈(R−r')/r⌉) from §III-E.
	CheckingFrameLen int

	// MaxRounds bounds the number of rounds; 0 means L_c, matching
	// Algorithm 1 line 3. Sessions that still have undelivered data at the
	// bound report Truncated.
	MaxRounds int

	// LossProb is the probability that a listener (tag or reader) fails to
	// sense a given busy slot — the unreliable-channel extension. 0 is the
	// paper's reliable model.
	LossProb float64

	// LossSeed seeds the loss process (only used when LossProb > 0).
	LossSeed uint64

	// Tracer, if non-nil, receives the session's structured event stream
	// (session_start, frame, indicator, check, round, session_end). Tracers
	// are observe-only: attaching one never changes the simulation, and a
	// nil Tracer costs nothing (see BenchmarkSessionTracer).
	Tracer obs.Tracer

	// Reader labels emitted events with the session's reader index, for
	// multi-reader runs and concurrent sweeps sharing one tracer. It does
	// not affect the simulation.
	Reader int
}

func (c Config) validate(nw *topology.Network) error {
	if c.FrameSize <= 0 {
		return fmt.Errorf("core: frame size must be positive, got %d", c.FrameSize)
	}
	// The checks are written !(in range) so that NaN fails them.
	if c.Picker == nil && !(c.Sampling >= 0 && c.Sampling <= 1) {
		return fmt.Errorf("core: sampling probability %v outside [0,1]", c.Sampling)
	}
	if c.IDs != nil && len(c.IDs) != nw.N() {
		return fmt.Errorf("core: %d IDs for %d tags", len(c.IDs), nw.N())
	}
	if !(c.LossProb >= 0 && c.LossProb < 1) {
		return fmt.Errorf("core: loss probability %v outside [0,1)", c.LossProb)
	}
	if c.CheckingFrameLen < 0 || c.MaxRounds < 0 {
		return fmt.Errorf("core: negative frame length or round bound")
	}
	return nil
}

// id returns the identifier of tag i under the config.
func (c Config) id(i int) uint64 {
	if c.IDs != nil {
		return c.IDs[i]
	}
	return uint64(i) + 1
}

// checkingFrameLen resolves L_c for the given network.
func (c Config) checkingFrameLen(nw *topology.Network) int {
	if c.CheckingFrameLen > 0 {
		return c.CheckingFrameLen
	}
	return nw.Ranges.CheckingFrameLen()
}

// maxRounds resolves the round bound for the given network.
func (c Config) maxRounds(nw *topology.Network) int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return c.checkingFrameLen(nw)
}
