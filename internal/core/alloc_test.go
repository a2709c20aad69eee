package core

import (
	"runtime"
	"testing"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/topology"
)

// TestSessionRoundAllocs pins the session hot paths at exactly zero
// allocations per operation once the arena is warm. Per-SESSION allocations
// (the Result, its meter, the bitmap clone) are deliberately outside the
// measured closures — they happen once per run and are the caller's to keep;
// the per-ROUND and per-checking-frame paths are what a million-tag session
// executes thousands of times and must never touch the allocator.
func TestSessionRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	nw := diskNetwork(t, 2000, 5, 0xa110c)
	meter := energy.NewMeter(nw.N())

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"reliable", Config{FrameSize: 128, Seed: 42, Sampling: 0.5}},
		{"lossy", Config{FrameSize: 128, Seed: 42, Sampling: 0.5, LossProb: 0.2, LossSeed: 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if err := cfg.validate(nw); err != nil {
				t.Fatal(err)
			}
			maxRounds := cfg.maxRounds(nw)

			// Warm the arena to its session-wide high-water mark: one
			// complete session sizes every scratch buffer.
			var s session
			s.init(nw, cfg, meter)
			s.seedInitialPicks()
			s.run()

			t.Run("session-rounds", func(t *testing.T) {
				// The full round loop of run(), minus Result assembly.
				allocs := testing.AllocsPerRun(10, func() {
					s.init(nw, cfg, meter)
					s.seedInitialPicks()
					for round := 1; round <= maxRounds; round++ {
						s.runRound(round)
						if !s.runCheckingFrame(round) {
							break
						}
					}
				})
				if allocs != 0 {
					t.Errorf("warm session rounds allocated %v times per run, want 0", allocs)
				}
			})

			t.Run("steady-round", func(t *testing.T) {
				// The session above is drained, so each call is the
				// steady-state round skeleton: CSR fold, monitoring charge,
				// reader bookkeeping, indicator broadcast. The per-round
				// diagnostics are trimmed inside the closure because a real
				// session resets them once per run, not once per round.
				allocs := testing.AllocsPerRun(50, func() {
					s.newBusyPerRound = s.newBusyPerRound[:0]
					s.runRound(1)
				})
				if allocs != 0 {
					t.Errorf("steady round allocated %v times per run, want 0", allocs)
				}
			})

			t.Run("checking-frame", func(t *testing.T) {
				allocs := testing.AllocsPerRun(50, func() {
					s.checkSlotsPerRound = s.checkSlotsPerRound[:0]
					s.runCheckingFrame(1)
				})
				if allocs != 0 {
					t.Errorf("checking frame allocated %v times per run, want 0", allocs)
				}
			})
		})
	}
}

// TestRunnerNetworkSwitchAllocs pins the arena across networks: nothing in
// it is keyed by network (the row masks are the network's own, read as
// they are), so the first session on a different network of the same size
// allocates nothing outside its Result. The config is p = 1 over 2000 tags,
// so every in-system tag transmits and a heard strip spans 32 words. Like TestSessionRoundAllocs, it measures the session minus Result
// assembly, here once, since a warm-up run would hide the switch.
func TestRunnerNetworkSwitchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is load-sensitive; skipped in -short")
	}
	a := diskNetwork(t, 2000, 5, 0xa110c)
	b := diskNetwork(t, 2000, 5, 0xb110c)
	cfg := Config{FrameSize: 128, Seed: 42, Sampling: 1}
	for _, nw := range []*topology.Network{a, b} {
		if err := cfg.validate(nw); err != nil {
			t.Fatal(err)
		}
	}
	meter := energy.NewMeter(a.N())
	var s session
	runSession := func(nw *topology.Network) {
		s.init(nw, cfg, meter)
		s.seedInitialPicks()
		for round := 1; round <= cfg.maxRounds(nw); round++ {
			s.runRound(round)
			if !s.runCheckingFrame(round) {
				break
			}
		}
	}
	runSession(a)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runSession(b)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("first session on a second network allocated %d times outside its Result, want 0", allocs)
	}
}

// TestRunnerReleasesCaller: between sessions a Runner — RunSession's pooled
// ones included — holds no reference to the caller's network, IDs, tracer
// or Result meter, so an idle arena keeps only its own scratch alive.
func TestRunnerReleasesCaller(t *testing.T) {
	nw := diskNetwork(t, 300, 5, 0x5e1)
	r := NewRunner()
	if _, err := r.Run(nw, Config{FrameSize: 64, Seed: 7, Sampling: 1, Tracer: obs.NewMemory()}); err != nil {
		t.Fatal(err)
	}
	if s := &r.s; s.nw != nil || s.order != nil || s.rank != nil || s.meter != nil ||
		s.cfg.Tracer != nil || s.cfg.IDs != nil {
		t.Error("idle Runner still references its last session's caller state")
	}
}
