package core

import (
	"netags/internal/energy"
	"netags/internal/topology"
)

// Runner executes CCM sessions while retaining every piece of per-session
// scratch — the slot-major heard bitset (f·⌈n/64⌉ words: 32 MB at 10^6
// tags and f = 256), the pending words (16 B each: the tags of one
// heard-strip word that picked or heard one slot), the slot- and
// tag-grouped transmit views, the checking-frame wave buffers, the reader
// bitmaps — between runs. The row masks it delivers over are the network's
// own (topology.Network.Masks), read as they are. Nothing in it is keyed by network: after the first session over a
// deployment of a given size, subsequent sessions of similar shape, on that
// network or another, allocate only their Result (bitmap clone, meter,
// diagnostic copies); the per-round hot path allocates nothing at all
// (TestSessionRoundAllocs, TestRunnerNetworkSwitchAllocs).
//
// A Runner is not safe for concurrent use; RunSession pools them. Results
// are fully owned by the caller and remain valid after the Runner moves on
// to its next session, so pooling never constrains result lifetime. Between
// sessions a Runner holds no reference to the caller's network, config or
// tracer, only its own scratch.
type Runner struct {
	s session
}

// NewRunner returns an empty Runner. The arena is sized lazily by the first
// Run.
func NewRunner() *Runner {
	return &Runner{}
}

// Run executes one CCM session (Algorithm 1) over the network, reusing the
// Runner's scratch arena. It is behaviorally identical to RunSession —
// byte-identical Results for the same inputs, pinned by the simtest golden
// and no-state-bleed tests.
func (r *Runner) Run(nw *topology.Network, cfg Config) (*Result, error) {
	if err := cfg.validate(nw); err != nil {
		return nil, err
	}
	r.s.init(nw, cfg, energy.NewMeter(nw.N()))
	r.s.seedInitialPicks()
	res := r.s.run()
	// Drop the caller's network, config (IDs, Tracer) and Result meter, so
	// an idle arena keeps only its own scratch alive; init sets them again.
	r.s.nw, r.s.cfg, r.s.order, r.s.rank, r.s.meter = nil, Config{}, nil, nil, nil
	return res, nil
}
