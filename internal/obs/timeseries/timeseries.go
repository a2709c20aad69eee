// Package timeseries is a dependency-free, fixed-memory time-series
// engine: named per-series ring buffers of (timestamp, value) samples with
// configurable resolution and retention, plus step-aligned downsampling for
// queries. It exists so a single ccmserve binary can answer "how did we get
// here" — queue build-ups, GC pauses, cache-hit collapse — without an
// external TSDB scraping it (see DESIGN.md "Time-series telemetry").
//
// Memory is bounded by construction: every series owns one preallocated
// ring of retention/resolution slots, and recording into a warm series
// performs zero allocations. Writers and readers never block each other for
// longer than a ring copy.
package timeseries

import (
	"math"
	"sort"
	"sync"
	"time"

	"netags/internal/obs"
)

// Defaults used by New when given non-positive values.
const (
	DefaultResolution = time.Second
	DefaultRetention  = 15 * time.Minute
)

// Ring capacity bounds: a floor so tiny retention/resolution ratios still
// hold a useful window, a ceiling so a misconfigured flag cannot ask for
// gigabytes.
const (
	minSeriesCap = 16
	maxSeriesCap = 1 << 16
)

// Sample is one recorded observation. T is unix milliseconds — small enough
// to keep the ring compact, fine enough for sub-second resolutions.
type Sample struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Point is one downsampled window: T is the step-aligned window start (unix
// ms), V the mean of the window's samples, N how many samples it folds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
	N int     `json:"n"`
}

// series is one fixed-capacity overwrite ring, oldest evicted first.
type series struct {
	mu  sync.Mutex
	buf obs.RingBuffer[Sample]
}

func (s *series) append(sm Sample) {
	s.mu.Lock()
	s.buf.Push(sm)
	s.mu.Unlock()
}

// snapshot returns the retained samples oldest-first. The slice is a copy.
func (s *series) snapshot() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.AppendTo(make([]Sample, 0, s.buf.Len()))
}

// DB holds every series. Series are created on first Record and never
// removed; the sampler records a bounded catalog of names (families labeled
// from outside the program are obs.Registry.ExposeOnly), so the map stops
// growing once every label value the program can produce has been seen.
type DB struct {
	resolution time.Duration
	capPer     int

	mu     sync.RWMutex
	series map[string]*series
}

// New returns a DB whose rings each hold retention/resolution samples
// (clamped to [16, 65536]). Non-positive arguments take the defaults.
func New(resolution, retention time.Duration) *DB {
	if resolution <= 0 {
		resolution = DefaultResolution
	}
	if retention <= 0 {
		retention = DefaultRetention
	}
	capPer := int(retention / resolution)
	if capPer < minSeriesCap {
		capPer = minSeriesCap
	}
	if capPer > maxSeriesCap {
		capPer = maxSeriesCap
	}
	return &DB{
		resolution: resolution,
		capPer:     capPer,
		series:     make(map[string]*series),
	}
}

// Resolution returns the sampling interval the DB was sized for.
func (db *DB) Resolution() time.Duration { return db.resolution }

// SeriesCap returns the per-series ring capacity.
func (db *DB) SeriesCap() int { return db.capPer }

// Record appends one sample to the named series, creating it on first use.
// Recording into an existing series allocates nothing.
func (db *DB) Record(name string, t time.Time, v float64) {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil {
		db.mu.Lock()
		s = db.series[name]
		if s == nil {
			s = &series{buf: obs.NewRingBuffer[Sample](db.capPer)}
			db.series[name] = s
		}
		db.mu.Unlock()
	}
	s.append(Sample{T: t.UnixMilli(), V: v})
}

// Names returns every series name, sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.series))
	for n := range db.series {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Samples returns a copy of the named series' retained samples, oldest
// first, and whether the series exists.
func (db *DB) Samples(name string) ([]Sample, bool) {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s == nil {
		return nil, false
	}
	return s.snapshot(), true
}

// Query returns the named series downsampled to step-aligned windows,
// restricted to samples at or after since (zero since means everything
// retained). A non-positive step uses the DB resolution. The second result
// reports whether the series exists.
func (db *DB) Query(name string, since time.Time, step time.Duration) ([]Point, bool) {
	samples, ok := db.Samples(name)
	if !ok {
		return nil, false
	}
	if step <= 0 {
		step = db.resolution
	}
	var sinceMS int64 = math.MinInt64
	if !since.IsZero() {
		sinceMS = since.UnixMilli()
	}
	return Downsample(samples, sinceMS, step.Milliseconds()), true
}

// Register adds the engine's own occupancy families to reg, so the
// observer is itself observable.
func (db *DB) Register(reg *obs.Registry) {
	reg.GaugeFunc("netags_timeseries_series", "Live time-series count.",
		func() float64 { return float64(db.Stats().Series) })
	reg.GaugeFunc("netags_timeseries_samples", "Samples currently retained across series.",
		func() float64 { return float64(db.Stats().Samples) })
	reg.CounterFunc("netags_timeseries_dropped_total", "Samples evicted by ring rotation.",
		func() int64 { return int64(db.Stats().Dropped) })
}

// Stats summarizes the DB for /metrics-style exposition.
type Stats struct {
	// Series is the number of live series.
	Series int
	// Samples is the number of samples currently retained across series.
	Samples int
	// Dropped is the monotonic count of samples evicted by ring rotation.
	Dropped uint64
}

// Stats returns current occupancy and the monotonic eviction count.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	all := make([]*series, 0, len(db.series))
	for _, s := range db.series {
		all = append(all, s)
	}
	db.mu.RUnlock()
	st := Stats{Series: len(all)}
	for _, s := range all {
		s.mu.Lock()
		st.Samples += s.buf.Len()
		st.Dropped += s.buf.Dropped()
		s.mu.Unlock()
	}
	return st
}

// Downsample folds samples into step-aligned windows [W, W+step) where W =
// floor(T/step)*step, dropping samples with T < since. Each output Point
// carries the window start, the mean of its samples, and the fold count;
// windows with no samples are omitted (gaps stay gaps). step is in
// milliseconds and must be positive.
//
// Samples are normally time-ordered (one sampler goroutine), but the fold
// tolerates out-of-order timestamps — a clock regression buckets the sample
// by its own timestamp into the (possibly earlier) window it belongs to,
// keeping the output sorted by window start.
func Downsample(samples []Sample, since int64, step int64) []Point {
	if step <= 0 {
		step = 1
	}
	pts := make([]Point, 0, len(samples))
	for _, sm := range samples {
		if sm.T < since {
			continue
		}
		w := alignDown(sm.T, step)
		// Fast path: the window of the running last point (in-order input).
		if n := len(pts); n > 0 && pts[n-1].T == w {
			pts[n-1].V += sm.V
			pts[n-1].N++
			continue
		}
		// Find the insertion slot; out-of-order samples are rare, so a
		// binary search over the (sorted) output is plenty.
		i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= w })
		if i < len(pts) && pts[i].T == w {
			pts[i].V += sm.V
			pts[i].N++
			continue
		}
		pts = append(pts, Point{})
		copy(pts[i+1:], pts[i:])
		pts[i] = Point{T: w, V: sm.V, N: 1}
	}
	for i := range pts {
		pts[i].V /= float64(pts[i].N)
	}
	return pts
}

// alignDown floors t to a multiple of step, correctly for negative t.
func alignDown(t, step int64) int64 {
	w := t - t%step
	if t < 0 && t%step != 0 {
		w -= step
	}
	return w
}
