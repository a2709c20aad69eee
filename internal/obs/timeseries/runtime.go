package timeseries

import (
	"math"
	"runtime/metrics"
	"slices"
)

// runtimeSeries maps each runtime/metrics name RuntimeSource samples to
// its series: one for a gauge or counter, a p50/p99 pair for a latency
// distribution. The distributions are cumulative histograms in the
// runtime; the source keeps the previous tick's counts and reports
// quantiles of the per-tick delta, so the series reflect what happened
// since the last sample rather than since process start.
var runtimeSeries = map[string][]string{
	"/gc/heap/live:bytes":            {"runtime_heap_live_bytes"},
	"/sched/goroutines:goroutines":   {"runtime_goroutines"},
	"/gc/cycles/total:gc-cycles":     {"runtime_gc_cycles_total"},
	"/sched/pauses/total/gc:seconds": {"runtime_gc_pause_p50_ms", "runtime_gc_pause_p99_ms"},
	"/sched/latencies:seconds":       {"runtime_sched_latency_p50_ms", "runtime_sched_latency_p99_ms"},
}

// IsRuntimeSeries reports whether RuntimeSource may record name.
func IsRuntimeSeries(name string) bool {
	for _, names := range runtimeSeries {
		if slices.Contains(names, name) {
			return true
		}
	}
	return false
}

// RuntimeSource returns a Source sampling Go runtime health:
//
//	runtime_heap_live_bytes      bytes of live heap after the last GC mark
//	runtime_goroutines           current goroutine count
//	runtime_gc_cycles_total      completed GC cycles (counter)
//	runtime_gc_pause_p50_ms      GC stop-the-world pause quantiles over the
//	runtime_gc_pause_p99_ms      last tick (gap when no pauses occurred)
//	runtime_sched_latency_p50_ms goroutine scheduling latency quantiles over
//	runtime_sched_latency_p99_ms the last tick (gap when idle)
//
// Metrics missing from the running toolchain are skipped, not errors.
func RuntimeSource() Source {
	samples := make([]metrics.Sample, 0, len(runtimeSeries))
	for name := range runtimeSeries {
		samples = append(samples, metrics.Sample{Name: name})
	}
	// One probe read to drop unsupported names so steady-state ticks never
	// touch KindBad branches.
	metrics.Read(samples)
	samples = slices.DeleteFunc(samples, func(s metrics.Sample) bool { return s.Value.Kind() == metrics.KindBad })
	prev := make(map[string][]uint64, 2)

	return func(rec func(name string, v float64)) {
		metrics.Read(samples)
		for i := range samples {
			s := &samples[i]
			names := runtimeSeries[s.Name]
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				emitDeltaQuantiles(rec, s.Value.Float64Histogram(), prev, s.Name, names[0], names[1])
			} else {
				rec(names[0], float64(s.Value.Uint64()))
			}
		}
	}
}

// emitDeltaQuantiles records p50/p99 (in ms) of the histogram counts added
// since the previous tick, updating the stored counts. No new observations
// ⇒ no samples recorded (the series keeps a gap instead of repeating a
// stale quantile).
func emitDeltaQuantiles(rec func(string, float64), h *metrics.Float64Histogram,
	prev map[string][]uint64, key, p50Name, p99Name string) {
	last := prev[key]
	delta := make([]uint64, len(h.Counts))
	var total uint64
	for i, c := range h.Counts {
		d := c
		if i < len(last) && last[i] <= c {
			d = c - last[i]
		}
		delta[i] = d
		total += d
	}
	// Retain the cumulative counts for next tick (reuse last's backing
	// array when the bucket layout is stable, which it is in practice).
	if len(last) == len(h.Counts) {
		copy(last, h.Counts)
	} else {
		prev[key] = append([]uint64(nil), h.Counts...)
	}
	if total == 0 {
		return
	}
	rec(p50Name, histQuantile(h, delta, total, 0.50)*1000)
	rec(p99Name, histQuantile(h, delta, total, 0.99)*1000)
}

// histQuantile returns the q-quantile (0..1) of the delta counts, in the
// histogram's native unit (seconds), using each bucket's upper bound — a
// conservative (pessimistic) estimate, which is what an alert wants.
func histQuantile(h *metrics.Float64Histogram, delta []uint64, total uint64, q float64) float64 {
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, d := range delta {
		cum += d
		if cum >= target {
			// Buckets[i+1] is bucket i's upper bound; the last bucket's
			// bound can be +Inf, in which case fall back to its lower bound.
			up := h.Buckets[i+1]
			if math.IsInf(up, 1) || math.IsNaN(up) {
				up = h.Buckets[i]
			}
			return up
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
