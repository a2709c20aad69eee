package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"netags/internal/stats"
)

// PointTiming aggregates the wall time of one sweep point across its trials.
// It is derived purely from Progress events, so it reflects what the runner
// reported, not an independent clock.
type PointTiming struct {
	// Sweep, R, N, and Loss identify the point (the same coordinates the
	// Progress events carry).
	Sweep string
	R     float64
	N     int
	Loss  float64
	// Items is the number of completed work items observed for the point.
	Items int
	// Total is the summed work-item wall time. Under a parallel sweep this
	// is CPU-ish time, not elapsed time: items overlap.
	Total time.Duration
	// PerItem samples each item's wall time in milliseconds, so the spread
	// across trials (deployment-dependent cost) is visible.
	PerItem stats.Sample
}

// Label renders the point's coordinates ("r=15", "n=5000", "loss=0.2").
func (p *PointTiming) Label() string {
	return pointLabel(Progress{Sweep: p.Sweep, R: p.R, N: p.N, Loss: p.Loss})
}

// Throughput is the point's completion rate in items per second of summed
// work time. It is 0 until at least one item with nonzero elapsed time has
// been observed.
func (p *PointTiming) Throughput() float64 {
	if p.Total <= 0 {
		return 0
	}
	return float64(p.Items) / p.Total.Seconds()
}

// Timing folds Progress events into per-point elapsed/throughput
// aggregates. It is safe for concurrent use, matching the runner's contract
// that observers may be called from any worker (RunSweep serializes calls,
// but Wrap makes no such assumption about its caller).
type Timing struct {
	mu     sync.Mutex
	order  []string
	points map[string]*PointTiming
}

// NewTiming returns an empty aggregator.
func NewTiming() *Timing {
	return &Timing{points: make(map[string]*PointTiming)}
}

// Observe folds one Progress event into the aggregate.
func (tm *Timing) Observe(p Progress) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	key := fmt.Sprintf("%s|%g|%d|%g", p.Sweep, p.R, p.N, p.Loss)
	pt, ok := tm.points[key]
	if !ok {
		pt = &PointTiming{Sweep: p.Sweep, R: p.R, N: p.N, Loss: p.Loss}
		tm.points[key] = pt
		tm.order = append(tm.order, key)
	}
	pt.Items++
	pt.Total += p.Elapsed
	pt.PerItem.Add(float64(p.Elapsed) / float64(time.Millisecond))
}

// Wrap returns an observer that records each event and then forwards it to
// next (which may be nil). Pass the result as the observer of any sweep
// (RunContext's observe, Exec.Observe) to collect timing without giving up
// progress output.
func (tm *Timing) Wrap(next func(Progress)) func(Progress) {
	return func(p Progress) {
		tm.Observe(p)
		if next != nil {
			next(p)
		}
	}
}

// Points returns the per-point aggregates in first-observed order. The
// returned values are copies; mutating them does not affect the aggregator.
func (tm *Timing) Points() []PointTiming {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make([]PointTiming, 0, len(tm.order))
	for _, key := range tm.order {
		out = append(out, *tm.points[key])
	}
	return out
}

// String renders the aggregate as a table: one row per point with its item
// count, mean per-item time, and throughput.
func (tm *Timing) String() string {
	pts := tm.Points()
	if len(pts) == 0 {
		return "timing: no events observed\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s  %6s  %12s  %12s\n", "point", "items", "ms/item", "items/sec")
	for i := range pts {
		p := &pts[i]
		fmt.Fprintf(&b, "%-12s  %6d  %12.2f  %12.1f\n",
			p.Label(), p.Items, p.PerItem.Mean(), p.Throughput())
	}
	return b.String()
}
