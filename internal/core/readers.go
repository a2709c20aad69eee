package core

import (
	"fmt"

	"netags/internal/energy"
	"netags/internal/obs"
	"netags/internal/topology"
)

// SessionRunner executes one CCM session for a config: RunSession bound to
// one reader's network, or RunReaders to several. The estimators take one,
// so that a multi-reader caller OR-combines the readers' sessions before
// the estimator reads the frame.
type SessionRunner func(cfg Config) (*Result, error)

// RunReaders executes one CCM session per reader, round-robin (§III-G: the
// paper's conservative schedule, each reader in its own window, so readers
// never collide), and combines them into one Result: Bitmap is
// B = B_1 | B_2 | … | B_M (eq. (1)), Clock and Meter are summed over the
// windows, Rounds is the deepest session's and Truncated is set if any
// session was. nets[i] is reader i's network; each session runs cfg with
// Reader = i, and one KindReaderMerge event per reader follows its session.
func RunReaders(nets []*topology.Network, cfg Config) (*Result, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("core: no reader networks")
	}
	combined := &Result{Meter: energy.NewMeter(nets[0].N())}
	for ri, nw := range nets {
		rcfg := cfg
		rcfg.Reader = ri
		res, err := RunSession(nw, rcfg)
		if err != nil {
			return nil, fmt.Errorf("reader %d: %w", ri, err)
		}
		if combined.Bitmap == nil {
			combined.Bitmap = res.Bitmap.Clone()
		} else {
			combined.Bitmap.Or(res.Bitmap)
		}
		combined.Clock.Add(res.Clock)
		if err := combined.Meter.Merge(res.Meter); err != nil {
			return nil, fmt.Errorf("reader %d: %w", ri, err)
		}
		combined.Rounds = max(combined.Rounds, res.Rounds)
		combined.Truncated = combined.Truncated || res.Truncated
		if t := cfg.Tracer; t != nil {
			t.Trace(obs.Event{
				Kind:      obs.KindReaderMerge,
				Protocol:  obs.ProtoCCM,
				Reader:    ri,
				Count:     res.Bitmap.Count(),
				KnownBusy: combined.Bitmap.Count(),
				Rounds:    res.Rounds,
			})
		}
	}
	return combined, nil
}
