package netags

import (
	"fmt"
	"math"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/gmle"
	"netags/internal/lof"
	"netags/internal/obs"
	"netags/internal/prng"
	"netags/internal/search"
	"netags/internal/sicp"
	"netags/internal/trp"
)

// Cost reports what an operation spent, in the paper's units: air time in
// slot counts and per-tag energy in bits, aggregated over in-system tags.
type Cost struct {
	// Slots is the total execution time (Fig. 4's unit): ShortSlots carry
	// one tag bit, LongSlots carry a 96-bit message.
	Slots      int64
	ShortSlots int64
	LongSlots  int64
	// MaxBitsSent / MaxBitsReceived are the worst-case per-tag energies
	// (Tables I and II).
	MaxBitsSent     int64
	MaxBitsReceived int64
	// AvgBitsSent / AvgBitsReceived are the per-tag means (Tables III, IV).
	AvgBitsSent     float64
	AvgBitsReceived float64
}

func (s *System) cost(clock energy.Clock, meter *energy.Meter) Cost {
	sum := meter.Summarize(s.inSystem)
	return Cost{
		Slots:           clock.Total(),
		ShortSlots:      clock.ShortSlots,
		LongSlots:       clock.LongSlots,
		MaxBitsSent:     sum.MaxSent,
		MaxBitsReceived: sum.MaxReceived,
		AvgBitsSent:     sum.AvgSent,
		AvgBitsReceived: sum.AvgReceived,
	}
}

// EstimateMethod selects the cardinality estimator.
type EstimateMethod int

// The available estimators: GMLE (the paper's §IV choice) and the
// Lottery-Frame sketch of reference [2], which trades accuracy for very
// short frames.
const (
	EstimateGMLE EstimateMethod = iota
	EstimateLoF
)

// EstimateOptions configures EstimateCardinality.
type EstimateOptions struct {
	// Method selects the estimator (default GMLE).
	Method EstimateMethod
	// Alpha is the confidence level α (default 0.95). GMLE only.
	Alpha float64
	// Beta is the relative error bound β (default 0.05). GMLE only.
	Beta float64
	// FrameSize overrides the accurate-phase frame size (0 = derive from
	// Alpha and Beta for GMLE, 32 for LoF).
	FrameSize int
	// MaxFrames bounds the number of CCM sessions (default 64 for GMLE,
	// 32 for LoF).
	MaxFrames int
	// Seed makes the run reproducible.
	Seed uint64
	// LossProb enables the unreliable-channel extension.
	LossProb float64
}

// EstimateResult reports a cardinality estimation run.
type EstimateResult struct {
	// Estimate is n̂, the estimated number of in-system tags.
	Estimate float64
	// RelHalfWidth is the achieved relative confidence half-width.
	RelHalfWidth float64
	// Converged reports whether the (α, β) requirement was met.
	Converged bool
	// Frames is the number of CCM sessions executed.
	Frames int
	// Cost aggregates time and energy over all sessions.
	Cost Cost
	// Truncated warns that at least one session ended with data still in
	// flight (see SystemOptions.CheckingFrameLen); the estimate is then
	// biased low.
	Truncated bool
}

// EstimateCardinality estimates the number of tags in the system over CCM.
// The default GMLE method (paper §IV) satisfies
// Prob{n̂(1−β) ≤ n ≤ n̂(1+β)} ≥ α; the LoF method answers with far shorter
// frames at sketch-level accuracy.
func (s *System) EstimateCardinality(opts EstimateOptions) (*EstimateResult, error) {
	switch opts.Method {
	case EstimateGMLE:
		out, err := gmle.EstimateWith(s.TagCount(), s.runSession, gmle.Options{
			Alpha:     opts.Alpha,
			Beta:      opts.Beta,
			FrameSize: opts.FrameSize,
			MaxFrames: opts.MaxFrames,
			Seed:      opts.Seed,
			LossProb:  opts.LossProb,
			Tracer:    s.tracer,
		})
		if err != nil {
			return nil, err
		}
		return &EstimateResult{
			Estimate:     out.Estimate,
			RelHalfWidth: out.RelHalfWidth,
			Converged:    out.Converged,
			Frames:       out.Frames,
			Cost:         s.cost(out.Clock, out.Meter),
			Truncated:    out.Truncated,
		}, nil
	case EstimateLoF:
		out, err := lof.EstimateWith(s.TagCount(), s.runSession, lof.Options{
			Frames:    opts.MaxFrames,
			FrameSize: opts.FrameSize,
			Seed:      opts.Seed,
			LossProb:  opts.LossProb,
			Tracer:    s.tracer,
		})
		if err != nil {
			return nil, err
		}
		return &EstimateResult{
			Estimate:     out.Estimate,
			RelHalfWidth: math.Inf(1), // LoF gives no confidence interval
			Frames:       out.Frames,
			Cost:         s.cost(out.Clock, out.Meter),
			Truncated:    out.Truncated,
		}, nil
	}
	return nil, fmt.Errorf("netags: unknown estimate method %d", opts.Method)
}

// IdentifyOptions configures IdentifyMissing.
type IdentifyOptions struct {
	// FrameSize is the per-round frame size (0 = sized to the inventory).
	FrameSize int
	// MaxRounds bounds the number of TRP executions (default 16).
	MaxRounds int
	// Seed derives the per-round request seeds.
	Seed uint64
}

// IdentifyResult reports an identification run.
type IdentifyResult struct {
	// Present and Absent partition the classified inventory IDs; both
	// classifications are certain under a reliable channel and a closed
	// system.
	Present []uint64
	Absent  []uint64
	// Undetermined lists IDs still unresolved at the round bound.
	Undetermined []uint64
	// Complete reports full classification.
	Complete bool
	// Rounds is the number of executions used.
	Rounds int
	// Cost aggregates time and energy over all rounds.
	Cost Cost
}

// IdentifyMissing classifies every inventory ID as present or absent with
// certainty by iterating TRP executions with fresh hash seeds — the
// exhaustive follow-up to DetectMissing's yes/no answer. Only supported on
// single-reader systems (the iteration logic needs one coherent bitmap per
// seed).
func (s *System) IdentifyMissing(inventory []uint64, opts IdentifyOptions) (*IdentifyResult, error) {
	if len(s.networks) != 1 {
		return nil, fmt.Errorf("netags: IdentifyMissing supports a single reader, have %d", len(s.networks))
	}
	if len(inventory) == 0 {
		return nil, fmt.Errorf("netags: empty inventory")
	}
	out, err := trp.Identify(s.networks[0], inventory, s.ids, trp.IdentifyOptions{
		FrameSize: opts.FrameSize,
		MaxRounds: opts.MaxRounds,
		Seed:      opts.Seed,
		Tracer:    s.tracer,
	})
	if err != nil {
		return nil, err
	}
	return &IdentifyResult{
		Present:      out.Present,
		Absent:       out.Absent,
		Undetermined: out.Undetermined,
		Complete:     out.Complete,
		Rounds:       out.Rounds,
		Cost:         s.cost(out.Clock, out.Meter),
	}, nil
}

// DetectOptions configures DetectMissing.
type DetectOptions struct {
	// Tolerance is the m of the detection requirement: absences beyond m
	// must be detected (default 0.5% of the inventory).
	Tolerance int
	// Delta is the required single-execution detection probability
	// (default 0.95).
	Delta float64
	// FrameSize overrides the frame size (0 = derive from the inventory
	// size, Tolerance and Delta).
	FrameSize int
	// Seed is the request seed η.
	Seed uint64
	// LossProb enables the unreliable-channel extension.
	LossProb float64
	// Executions repeats the protocol with fresh seeds until something is
	// detected (default 1). k clean executions push the miss probability
	// to (1−δ)^k — the paper's §V-A remark.
	Executions int
}

// DetectResult reports one missing-tag detection execution.
type DetectResult struct {
	// Missing reports whether at least one inventory tag was detected
	// absent.
	Missing bool
	// Suspects lists inventory IDs that are provably absent (their slot
	// came back idle). Under a reliable channel there are no false accusations.
	Suspects []uint64
	// UnknownTags reports busy slots no inventory tag maps to — evidence
	// of tags the reader does not know about.
	UnknownTags bool
	// Rounds is the total CCM session depth over all executions.
	Rounds int
	// Executions is how many protocol executions ran (repetition stops at
	// the first detection).
	Executions int
	// Cost accumulates time and energy over all executions.
	Cost Cost
	// Truncated warns that a session ended with data still in flight;
	// absences reported from a truncated session may be spurious (see
	// SystemOptions.CheckingFrameLen).
	Truncated bool
}

// DetectMissing runs one TRP execution over CCM (paper §V): the reader
// predicts the status bitmap from the inventory and flags predicted-busy
// slots that come back idle. inventory is the ID set the reader believes
// should be present.
func (s *System) DetectMissing(inventory []uint64, opts DetectOptions) (*DetectResult, error) {
	if len(inventory) == 0 {
		return nil, fmt.Errorf("netags: empty inventory")
	}
	if opts.Delta == 0 {
		opts.Delta = 0.95
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = len(inventory) / 200
		if opts.Tolerance == 0 {
			opts.Tolerance = 1
		}
	}
	f := opts.FrameSize
	if f == 0 {
		var err error
		f, err = trp.FrameSizeFor(len(inventory), opts.Tolerance, opts.Delta)
		if err != nil {
			return nil, err
		}
	}
	if opts.Executions == 0 {
		opts.Executions = 1
	}
	if opts.Executions < 0 {
		return nil, fmt.Errorf("netags: negative execution count %d", opts.Executions)
	}
	out := &DetectResult{}
	var clock energy.Clock
	meter := energy.NewMeter(s.TagCount())
	seeds := prng.New(opts.Seed)
	for exec := 1; exec <= opts.Executions; exec++ {
		seed := seeds.Uint64()
		plan, err := trp.NewPlan(inventory, f, seed)
		if err != nil {
			return nil, err
		}
		res, err := s.runSession(core.Config{
			FrameSize: f,
			Seed:      seed,
			Sampling:  1,
			LossProb:  opts.LossProb,
			LossSeed:  seeds.Uint64(),
		})
		if err != nil {
			return nil, err
		}
		det, err := plan.Detect(res.Bitmap)
		if err != nil {
			return nil, err
		}
		out.Executions = exec
		out.Rounds += res.Rounds
		out.Truncated = out.Truncated || res.Truncated
		out.UnknownTags = out.UnknownTags || len(det.UnexpectedBusy) > 0
		clock.Add(res.Clock)
		if err := meter.Merge(res.Meter); err != nil {
			return nil, fmt.Errorf("netags: execution %d: %w", exec, err)
		}
		if t := s.tracer; t != nil {
			t.Trace(obs.Event{
				Kind:      obs.KindPhase,
				Protocol:  obs.ProtoTRP,
				Phase:     "detect",
				Round:     exec,
				FrameSize: f,
				Count:     len(det.EmptySlots),
				Pending:   det.Missing,
				Seed:      seed,
			})
		}
		if det.Missing {
			out.Missing = true
			out.Suspects = det.Suspects
			break
		}
	}
	out.Cost = s.cost(clock, meter)
	return out, nil
}

// SearchOptions configures SearchTags.
type SearchOptions struct {
	// Hashes is the Bloom width k (default 3).
	Hashes int
	// FrameSize overrides the frame size (0 = derive from the population
	// and TargetFalsePositive).
	FrameSize int
	// TargetFalsePositive bounds the false-positive rate when the frame
	// size is derived (default 0.05).
	TargetFalsePositive float64
	// Seed identifies the request.
	Seed uint64
	// LossProb enables the unreliable-channel extension.
	LossProb float64
}

// SearchResult reports one tag search execution.
type SearchResult struct {
	// Found lists wanted IDs present in the system (up to the
	// false-positive rate).
	Found []uint64
	// Absent lists wanted IDs provably not in the system.
	Absent []uint64
	// ExpectedFalsePositiveRate is the analytical rate for this execution.
	ExpectedFalsePositiveRate float64
	// Rounds is the CCM session depth.
	Rounds int
	// Cost is the session's time and energy.
	Cost Cost
	// Truncated warns that the session ended with data still in flight;
	// "provably absent" claims from a truncated session may be spurious.
	Truncated bool
}

// SearchTags tests which of the wanted IDs are present, with every tag
// Bloom-encoding itself into the frame over CCM (paper §III-B).
func (s *System) SearchTags(wanted []uint64, opts SearchOptions) (*SearchResult, error) {
	if opts.Hashes == 0 {
		opts.Hashes = search.DefaultHashes
	}
	if opts.Hashes < 0 {
		return nil, fmt.Errorf("netags: negative hash count %d", opts.Hashes)
	}
	if opts.TargetFalsePositive == 0 {
		opts.TargetFalsePositive = 0.05
	}
	f := opts.FrameSize
	if f == 0 {
		var err error
		f, err = search.FrameSizeFor(max(s.reachable, 1), opts.Hashes, opts.TargetFalsePositive)
		if err != nil {
			return nil, err
		}
	}
	res, err := s.runSession(core.Config{
		FrameSize: f,
		Seed:      opts.Seed,
		Picker:    search.Picker(opts.Seed, opts.Hashes, f),
		LossProb:  opts.LossProb,
		LossSeed:  opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	found, absent := search.EvaluateObserved(s.tracer, res.Bitmap, wanted, opts.Seed, opts.Hashes)
	return &SearchResult{
		Found:                     found,
		Absent:                    absent,
		ExpectedFalsePositiveRate: search.FalsePositiveRate(s.reachable, f, opts.Hashes),
		Rounds:                    res.Rounds,
		Cost:                      s.cost(res.Clock, res.Meter),
		Truncated:                 res.Truncated,
	}, nil
}

// CollectOptions configures CollectIDs.
type CollectOptions struct {
	// Contention switches to the contention-based CICP variant instead of
	// serialized SICP.
	Contention bool
	// ContentionWindow is the CSMA window (default 8).
	ContentionWindow int
	// Seed drives the CSMA backoffs.
	Seed uint64
}

// CollectResult reports one ID-collection run.
type CollectResult struct {
	// IDs lists every tag identifier delivered to the reader(s).
	IDs []uint64
	// TreeDepth is the spanning tree depth.
	TreeDepth int
	// Cost is the run's time and energy.
	Cost Cost
}

// CollectIDs runs the baseline ID-collection protocol (SICP, or CICP with
// Contention set) and returns every collected tag ID. This is the approach
// the paper compares CCM against: correct, but one to two orders of
// magnitude more expensive. With multiple readers, each runs in its own
// window and duplicates are removed.
func (s *System) CollectIDs(opts CollectOptions) (*CollectResult, error) {
	sopts := sicp.Options{
		Seed:             opts.Seed,
		ContentionWindow: opts.ContentionWindow,
		IDs:              s.ids,
		Tracer:           s.tracer,
	}
	run := sicp.Collect
	if opts.Contention {
		run = sicp.CollectCICP
	}
	if len(s.networks) == 1 {
		// Tag IDs are unique and one network delivers each at most once,
		// so a lone reader's result needs no dedupe and no meter merge.
		res, err := run(s.networks[0], sopts)
		if err != nil {
			return nil, fmt.Errorf("netags: reader 0: %w", err)
		}
		return &CollectResult{IDs: res.Collected, TreeDepth: res.TreeDepth, Cost: s.cost(res.Clock, res.Meter)}, nil
	}
	out := &CollectResult{}
	var clock energy.Clock
	meter := energy.NewMeter(s.TagCount())
	seen := make(map[uint64]bool)
	for ri, nw := range s.networks {
		res, err := run(nw, sopts)
		if err != nil {
			return nil, fmt.Errorf("netags: reader %d: %w", ri, err)
		}
		for _, id := range res.Collected {
			if !seen[id] {
				seen[id] = true
				out.IDs = append(out.IDs, id)
			}
		}
		clock.Add(res.Clock)
		if err := meter.Merge(res.Meter); err != nil {
			return nil, fmt.Errorf("netags: reader %d: %w", ri, err)
		}
		if res.TreeDepth > out.TreeDepth {
			out.TreeDepth = res.TreeDepth
		}
	}
	out.Cost = s.cost(clock, meter)
	return out, nil
}

// SessionOptions configures a raw CCM bitmap collection.
type SessionOptions struct {
	// FrameSize is f (required).
	FrameSize int
	// Seed identifies the request.
	Seed uint64
	// Sampling is the participation probability p (default 1).
	Sampling float64
	// DisableIndicatorVector runs the §III-D ablation.
	DisableIndicatorVector bool
	// LossProb enables the unreliable-channel extension.
	LossProb float64
	// OnRound, if non-nil, receives a live report after each round — the
	// tier-by-tier convergence as it happens. With multiple readers the
	// callback fires for every reader's window.
	OnRound func(RoundInfo)
}

// RoundInfo is the live per-round report of a CCM session.
type RoundInfo struct {
	// Round is 1-based.
	Round int
	// Transmitters is the number of tags that transmitted in the frame.
	Transmitters int
	// BitsSent is the number of frame bits transmitted this round.
	BitsSent int
	// NewBusy is the number of slots the reader first saw busy this round.
	NewBusy int
	// KnownBusy is the reader's cumulative busy count.
	KnownBusy int
	// CheckSlots is the number of checking-frame slots executed.
	CheckSlots int
	// MorePending reports whether another round follows.
	MorePending bool
}

// roundTracer adapts OnRound to the session's KindRound events.
type roundTracer func(RoundInfo)

func (f roundTracer) Trace(ev obs.Event) {
	if ev.Kind != obs.KindRound {
		return
	}
	f(RoundInfo{
		Round: ev.Round, Transmitters: ev.Transmitters, BitsSent: int(ev.Bits),
		NewBusy: ev.NewBusy, KnownBusy: ev.KnownBusy,
		CheckSlots: ev.CheckSlots, MorePending: ev.Pending,
	})
}

// SessionResult reports a raw CCM session.
type SessionResult struct {
	// BusySlots lists the busy slot indices of the final bitmap B.
	BusySlots []int
	// FrameSize echoes f.
	FrameSize int
	// Rounds is the session depth (= the tier count the data crossed).
	Rounds int
	// Truncated reports an incomplete session (round bound or checking
	// frame too short).
	Truncated bool
	// Cost is the session's time and energy.
	Cost Cost
}

// CollectBitmap runs one raw CCM session (Algorithm 1) and returns the
// collected information bitmap — the primitive everything else builds on.
func (s *System) CollectBitmap(opts SessionOptions) (*SessionResult, error) {
	sampling := opts.Sampling
	if sampling == 0 {
		sampling = 1
	}
	cfg := core.Config{
		FrameSize:              opts.FrameSize,
		Seed:                   opts.Seed,
		Sampling:               sampling,
		DisableIndicatorVector: opts.DisableIndicatorVector,
		LossProb:               opts.LossProb,
		LossSeed:               opts.Seed + 1,
	}
	if opts.OnRound != nil {
		cfg.Tracer = obs.Multi(s.tracer, roundTracer(opts.OnRound))
	}
	if opts.DisableIndicatorVector && len(s.networks) > 0 {
		cfg.MaxRounds = 4 * s.ranges.CheckingFrameLen()
	}
	res, err := s.runSession(cfg)
	if err != nil {
		return nil, err
	}
	return &SessionResult{
		BusySlots: res.Bitmap.Indices(),
		FrameSize: opts.FrameSize,
		Rounds:    res.Rounds,
		Truncated: res.Truncated,
		Cost:      s.cost(res.Clock, res.Meter),
	}, nil
}
