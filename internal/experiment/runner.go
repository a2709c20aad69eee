// The deterministic parallel sweep runner. Every sweep in this package —
// the main r sweep, the population sweep, the loss sweep — is a grid of
// independent (point, trial) work items; this file fans that grid out over a
// bounded worker pool while keeping the reported numbers bit-identical to a
// sequential run.
//
// Determinism rests on two rules:
//
//  1. Seeds are position-derived, never drawn in loop order. Each work
//     item's seeds come from prng.DeriveSeed(base, pointKey, trial, stream),
//     so the schedule cannot influence which deployment a trial gets.
//  2. Aggregation is an ordered reduce. Workers write into a per-trial
//     result slice (distinct memory per item, no locks), and the caller
//     folds it into stats.Sample accumulators in grid order afterwards.
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netags/internal/obs"
	"netags/internal/prng"
)

// BaseConfig carries the fields shared by every sweep in this package.
// Embed it in a sweep-specific config and validate with its methods.
type BaseConfig struct {
	// N is the number of deployed tags. Sweeps that vary the population
	// (the density kind) ignore it.
	N int
	// Radius is the deployment disk radius in meters.
	Radius float64
	// Trials is the number of independent deployments per sweep point.
	Trials int
	// Seed makes the whole sweep reproducible: every trial's seeds are
	// derived from (Seed, point, trial), independent of execution order.
	Seed uint64
	// Workers bounds the goroutines executing work items. 0 means
	// runtime.GOMAXPROCS(0); 1 runs the sequential path in the calling
	// goroutine. Any value produces bit-identical results.
	Workers int
	// Tracer, if non-nil, receives the structured event stream of every
	// protocol run in the sweep. It MUST be safe for concurrent use (the
	// worker pool shares it; obs.JSONL, obs.Memory, and obs.Collector all
	// are) and is observe-only: attaching one never changes the reported
	// numbers. Events arrive in completion order, interleaved across
	// concurrent work items; the Reader field does not distinguish work
	// items, so deep per-trial analysis is best done at Workers: 1.
	Tracer obs.Tracer
}

// workers resolves the effective pool size.
func (c BaseConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// validate checks the fields every sweep reads; N is the kind's to check.
func (c BaseConfig) validate() error {
	if !(c.Radius > 0) {
		return fmt.Errorf("experiment: radius must be positive, got %g", c.Radius)
	}
	if c.Trials <= 0 {
		return fmt.Errorf("experiment: trials must be positive, got %d", c.Trials)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiment: workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// TrialSeeds are the position-derived seeds of one (point, trial) work
// item. Deploy seeds the deployment sampling, Proto the protocol randomness
// (request seeds, backoff draws), and Aux any extra stream a sweep needs
// (the loss sweep's channel coin flips).
type TrialSeeds struct {
	Deploy uint64
	Proto  uint64
	Aux    uint64
}

// SeedsFor derives the seeds of one work item from the sweep seed, the
// point key, and the trial index. It is exported so tests can pin the exact
// derivation: changing it silently reshuffles every reported deployment.
func SeedsFor(base, pointKey uint64, trial int) TrialSeeds {
	return TrialSeeds{
		Deploy: prng.DeriveSeed(base, pointKey, uint64(trial), 0),
		Proto:  prng.DeriveSeed(base, pointKey, uint64(trial), 1),
		Aux:    prng.DeriveSeed(base, pointKey, uint64(trial), 2),
	}
}

// FloatKey and IntKey fold sweep points into the seed derivation.
func FloatKey(v float64) uint64 { return math.Float64bits(v) }

// IntKey folds an integer sweep point into the seed derivation.
func IntKey(v int) uint64 { return uint64(v) }

// Progress is one structured progress event, emitted after a work item
// completes. It replaces the free-form func(string) callback: consumers get
// the sweep coordinates, the deployment's tier count, and the wall time
// instead of a pre-rendered line. String renders the legacy line.
type Progress struct {
	// Sweep labels the producing sweep: a kind name ("range", "density",
	// "loss") or, for events from outside the kinds table, any other name,
	// which String labels by R.
	Sweep string
	// R is the inter-tag range of the work item (range and loss sweeps).
	R float64
	// N is the population of the work item (density sweep; 0 otherwise).
	N int
	// Loss is the loss probability of the work item (loss sweep).
	Loss float64
	// Trial is the 0-based trial index; Trials the total per point.
	Trial  int
	Trials int
	// Protocols lists the protocols executed in this work item.
	Protocols []Protocol
	// Tiers is the tier count of the trial's deployment.
	Tiers int
	// Elapsed is the wall time the work item took.
	Elapsed time.Duration
	// Completed and Total are the sweep-wide work-item counts at the moment
	// this event was emitted (Completed includes this item). RunSweep stamps
	// them; hand-built events may leave them zero, in which case String and
	// ETA omit the sweep-level view.
	Completed int
	Total     int
	// SweepElapsed is the wall time since the sweep started, stamped by
	// RunSweep alongside Completed/Total. Unlike Elapsed (one item's cost,
	// deterministic in count) it is sweep-global and drives ETA.
	SweepElapsed time.Duration
}

// ETA extrapolates the remaining wall time from the completion rate so far:
// SweepElapsed/Completed per item times the items left. It returns 0 until
// the sweep-level fields are populated (Completed or Total zero) and 0 once
// the sweep is done.
func (p Progress) ETA() time.Duration {
	if p.Completed <= 0 || p.Total <= 0 || p.Completed >= p.Total {
		return 0
	}
	perItem := float64(p.SweepElapsed) / float64(p.Completed)
	return time.Duration(perItem * float64(p.Total-p.Completed))
}

// progressJSON is the wire form of a Progress event.
type progressJSON struct {
	Sweep          string   `json:"sweep"`
	R              float64  `json:"r,omitempty"`
	N              int      `json:"n,omitempty"`
	Loss           float64  `json:"loss"`
	Trial          int      `json:"trial"`
	Trials         int      `json:"trials"`
	Protocols      []string `json:"protocols,omitempty"`
	Tiers          int      `json:"tiers"`
	ElapsedMS      float64  `json:"elapsed_ms"`
	Completed      int      `json:"completed,omitempty"`
	Total          int      `json:"total,omitempty"`
	SweepElapsedMS float64  `json:"sweep_elapsed_ms,omitempty"`
	ETAMS          float64  `json:"eta_ms,omitempty"`
}

// MarshalJSON renders the event as one JSONL-friendly object (the CLIs'
// `-progress json` mode, /progress, and a served job's status). Zero-valued
// coordinates are kept: a loss sweep point with Loss 0 is real data, not
// absence.
func (p Progress) MarshalJSON() ([]byte, error) {
	protos := make([]string, len(p.Protocols))
	for i, pr := range p.Protocols {
		protos[i] = string(pr)
	}
	return json.Marshal(progressJSON{
		Sweep: p.Sweep, R: p.R, N: p.N, Loss: p.Loss,
		Trial: p.Trial, Trials: p.Trials, Protocols: protos,
		Tiers: p.Tiers, ElapsedMS: toMS(p.Elapsed),
		Completed: p.Completed, Total: p.Total,
		SweepElapsedMS: toMS(p.SweepElapsed),
		ETAMS:          toMS(p.ETA()),
	})
}

// UnmarshalJSON inverts MarshalJSON: the millisecond fields become
// durations again, and the derived eta_ms is dropped (ETA recomputes it),
// so marshal → unmarshal → marshal is byte-identical.
func (p *Progress) UnmarshalJSON(b []byte) error {
	var w progressJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = Progress{
		Sweep: w.Sweep, R: w.R, N: w.N, Loss: w.Loss,
		Trial: w.Trial, Trials: w.Trials,
		Tiers: w.Tiers, Elapsed: fromMS(w.ElapsedMS),
		Completed: w.Completed, Total: w.Total,
		SweepElapsed: fromMS(w.SweepElapsedMS),
	}
	for _, pr := range w.Protocols {
		p.Protocols = append(p.Protocols, Protocol(pr))
	}
	return nil
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fromMS rounds to the nanosecond, so toMS's float division round-trips.
func fromMS(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// TrackLatest holds the latest Progress event of a sweep for a live
// /progress view. observe stores each event and forwards it to next (which
// may be nil); latest renders the stored event, or {} before the first.
// Nothing is counted, timed or extrapolated here: the runner stamps
// Completed, Total and SweepElapsed on every event, and ETA derives from
// them.
func TrackLatest(next func(Progress)) (observe func(Progress), latest func() ([]byte, error)) {
	var (
		mu   sync.Mutex
		last Progress
		seen bool
	)
	observe = func(p Progress) {
		mu.Lock()
		last, seen = p, true
		mu.Unlock()
		if next != nil {
			next(p)
		}
	}
	latest = func() ([]byte, error) {
		mu.Lock()
		p, ok := last, seen
		mu.Unlock()
		if !ok {
			return []byte("{}"), nil
		}
		return p.MarshalJSON()
	}
	return observe, latest
}

// String renders the event in the legacy progress-line format, followed by
// the sweep-wide completion count and remaining-time estimate when the
// runner stamped them ("r=6 trial 1/2 done (K=4) [3/18, eta 42s]").
func (p Progress) String() string {
	line := fmt.Sprintf("%s trial %d/%d done (K=%d)", pointLabel(p), p.Trial+1, p.Trials, p.Tiers)
	if p.Total > 0 {
		if p.Completed >= p.Total {
			line += fmt.Sprintf(" [%d/%d, done]", p.Completed, p.Total)
		} else {
			line += fmt.Sprintf(" [%d/%d, eta %s]", p.Completed, p.Total, p.ETA().Round(100*time.Millisecond))
		}
	}
	return line
}

// Sweep describes a grid of independent work items: len(Points) ×
// Base.Trials. It is the single entry every sweep in this package adapts
// to; Run executes one work item and must be safe to call concurrently.
type Sweep[P, T any] struct {
	Base   BaseConfig
	Points []P
	// Key folds a point into the seed derivation. Distinct points should
	// map to distinct keys (FloatKey / IntKey cover the common cases).
	Key func(P) uint64
	// Run executes one work item. It must not retain or mutate shared
	// state: all randomness comes from seeds, all output is the return.
	Run func(ctx context.Context, point P, trial int, seeds TrialSeeds) (T, error)
	// Event, if non-nil, describes a completed work item as a Progress
	// event for the observer passed to RunSweep.
	Event func(point P, trial int, result T, elapsed time.Duration) Progress
	// Skip, if non-nil, marks points whose work items must not run — the
	// resume path. Skip[i] true leaves results[i] zero-valued, emits no
	// Progress events for the point, and never invokes PointDone on it.
	// Because seeds are position-derived, skipping points cannot change
	// what any other point computes.
	Skip []bool
	// PointDone, if non-nil, is invoked exactly once per computed point,
	// when the point's last trial lands. Calls are serialized (under the
	// same lock as the observer) but arrive in completion order, which
	// under parallelism is not grid order.
	PointDone func(p SweepPoint[P, T])
}

// SweepPoint is one completed grid point, delivered to Sweep.PointDone:
// the point's coordinates, its trial results in trial order, and the
// summed wall time of the point's work items.
type SweepPoint[P, T any] struct {
	// Index is the point's position in Sweep.Points.
	Index int
	// Point is the sweep coordinate.
	Point P
	// Trials holds the point's results, indexed by trial.
	Trials []T
	// Elapsed is the sum of the point's per-item wall times — the compute
	// cost of the point, not the wall-clock span (which under parallelism
	// interleaves with other points).
	Elapsed time.Duration
}

// RunSweep executes every (point, trial) work item of s over a worker pool
// of Base.Workers goroutines and returns the results in grid order:
// out[i][t] is point i's trial t. Results are bit-identical for every
// worker count, including 1 (the sequential path). observe, if non-nil,
// receives one Progress event per completed work item; events are
// serialized but arrive in completion order, which under parallelism is not
// grid order. Points marked in s.Skip are not run (their result rows stay
// zero-valued) and do not count toward the Progress totals. The first
// error (or ctx cancellation) stops the sweep.
func RunSweep[P, T any](ctx context.Context, s Sweep[P, T], observe func(Progress)) ([][]T, error) {
	if len(s.Points) == 0 {
		return nil, fmt.Errorf("experiment: sweep has no points")
	}
	if s.Run == nil || s.Key == nil {
		return nil, fmt.Errorf("experiment: sweep needs Run and Key")
	}
	if s.Skip != nil && len(s.Skip) != len(s.Points) {
		return nil, fmt.Errorf("experiment: skip vector has %d entries for %d points", len(s.Skip), len(s.Points))
	}
	if err := s.Base.validate(); err != nil {
		return nil, err
	}
	trials := s.Base.Trials
	results := make([][]T, len(s.Points))
	for i := range results {
		results[i] = make([]T, trials)
	}
	// active maps a dense work-item index onto the point indices left to
	// run once skipped points are removed.
	active := make([]int, 0, len(s.Points))
	for pi := range s.Points {
		if s.Skip == nil || !s.Skip[pi] {
			active = append(active, pi)
		}
	}
	if len(active) == 0 {
		return results, nil
	}
	var (
		mu        sync.Mutex // serializes observe/PointDone and the completion count
		completed int
	)
	// Per-point accounting for PointDone: outstanding trials and the summed
	// item wall time. The atomic decrement orders each trial's result write
	// before the final decrementer's reads.
	var remaining []atomic.Int64
	var pointNanos []atomic.Int64
	if s.PointDone != nil {
		remaining = make([]atomic.Int64, len(s.Points))
		pointNanos = make([]atomic.Int64, len(s.Points))
		for _, pi := range active {
			remaining[pi].Store(int64(trials))
		}
	}
	sweepStart := time.Now()
	item := func(ctx context.Context, idx int) error {
		pi, trial := active[idx/trials], idx%trials
		point := s.Points[pi]
		start := time.Now()
		out, err := s.Run(ctx, point, trial, SeedsFor(s.Base.Seed, s.Key(point), trial))
		if err != nil {
			return err
		}
		results[pi][trial] = out
		elapsed := time.Since(start)
		if observe != nil && s.Event != nil {
			ev := s.Event(point, trial, out, elapsed)
			mu.Lock()
			// Stamp the sweep-wide view under the same lock that serializes
			// observe, so Completed is monotonic in delivery order.
			completed++
			ev.Completed = completed
			ev.Total = len(active) * trials
			ev.SweepElapsed = time.Since(sweepStart)
			observe(ev)
			mu.Unlock()
		}
		if s.PointDone != nil {
			pointNanos[pi].Add(int64(elapsed))
			if remaining[pi].Add(-1) == 0 {
				sp := SweepPoint[P, T]{
					Index: pi, Point: point, Trials: results[pi],
					Elapsed: time.Duration(pointNanos[pi].Load()),
				}
				mu.Lock()
				s.PointDone(sp)
				mu.Unlock()
			}
		}
		return nil
	}
	if err := ParallelFor(ctx, s.Base.workers(), len(active)*trials, item); err != nil {
		return nil, err
	}
	return results, nil
}

// ParallelFor runs body(i) for every i in [0, n) over a pool of workers
// goroutines (0 means GOMAXPROCS). workers == 1 runs in the calling
// goroutine in index order. The first error cancels the remaining work and
// is returned; a canceled ctx surfaces as its context error.
func ParallelFor(ctx context.Context, workers, n int, body func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := body(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := body(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
