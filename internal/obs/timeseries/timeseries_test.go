package timeseries

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func ms(t int64) time.Time { return time.UnixMilli(t) }

// TestDownsampleGolden pins the fold semantics: floor step alignment, mean
// aggregation, partial final windows, omitted empty windows, the since
// filter, empty input, and out-of-order timestamps (clock regression).
func TestDownsampleGolden(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
		since   int64
		step    int64
		want    []Point
	}{
		{
			name: "step alignment and mean",
			samples: []Sample{
				{T: 1001, V: 2}, {T: 1500, V: 4}, // window 1000: mean 3
				{T: 2100, V: 6}, // window 2000
			},
			since: math.MinInt64, step: 1000,
			want: []Point{{T: 1000, V: 3, N: 2}, {T: 2000, V: 6, N: 1}},
		},
		{
			name: "empty windows stay gaps",
			samples: []Sample{
				{T: 0, V: 1}, {T: 5000, V: 9}, // windows 1000-4000 absent
			},
			since: math.MinInt64, step: 1000,
			want: []Point{{T: 0, V: 1, N: 1}, {T: 5000, V: 9, N: 1}},
		},
		{
			name: "partial final window included",
			samples: []Sample{
				{T: 0, V: 2}, {T: 400, V: 4}, {T: 800, V: 6},
				{T: 1000, V: 10}, // final window holds one sample so far
			},
			since: math.MinInt64, step: 1000,
			want: []Point{{T: 0, V: 4, N: 3}, {T: 1000, V: 10, N: 1}},
		},
		{
			name:    "empty series",
			samples: nil,
			since:   math.MinInt64, step: 1000,
			want: []Point{},
		},
		{
			name: "since filter drops older samples",
			samples: []Sample{
				{T: 900, V: 1}, {T: 1100, V: 3}, {T: 2100, V: 5},
			},
			since: 1000, step: 1000,
			want: []Point{{T: 1000, V: 3, N: 1}, {T: 2000, V: 5, N: 1}},
		},
		{
			name: "clock regression buckets by sample time",
			samples: []Sample{
				{T: 1100, V: 2},
				{T: 2100, V: 8},
				{T: 1200, V: 4}, // regressed: belongs to window 1000
				{T: 100, V: 6},  // regressed past the first window: new head
			},
			since: math.MinInt64, step: 1000,
			want: []Point{
				{T: 0, V: 6, N: 1},
				{T: 1000, V: 3, N: 2},
				{T: 2000, V: 8, N: 1},
			},
		},
		{
			name:    "negative timestamps floor toward -inf",
			samples: []Sample{{T: -500, V: 2}, {T: -1500, V: 4}},
			since:   math.MinInt64, step: 1000,
			want: []Point{{T: -2000, V: 4, N: 1}, {T: -1000, V: 2, N: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Downsample(tc.samples, tc.since, tc.step)
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Downsample:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

func TestDBRecordQueryRotation(t *testing.T) {
	db := New(time.Second, 32*time.Second) // cap 32
	if db.SeriesCap() != 32 {
		t.Fatalf("SeriesCap = %d, want 32", db.SeriesCap())
	}
	for i := int64(0); i < 100; i++ {
		db.Record("s", ms(i*1000), float64(i))
	}
	samples, ok := db.Samples("s")
	if !ok || len(samples) != 32 {
		t.Fatalf("Samples: ok=%v len=%d, want 32 retained", ok, len(samples))
	}
	if samples[0].T != 68*1000 || samples[31].T != 99*1000 {
		t.Errorf("retained window [%d,%d], want [68000,99000]", samples[0].T, samples[31].T)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatalf("snapshot out of order at %d: %v", i, samples)
		}
	}
	st := db.Stats()
	if st.Series != 1 || st.Samples != 32 || st.Dropped != 68 {
		t.Errorf("Stats = %+v, want {1 32 68}", st)
	}
	if last, ok := latest(db, "s"); !ok || last.V != 99 {
		t.Errorf("latest = %+v ok=%v, want v=99", last, ok)
	}

	// Query with a 4s step folds 4 samples per window.
	pts, ok := db.Query("s", time.Time{}, 4*time.Second)
	if !ok || len(pts) == 0 {
		t.Fatalf("Query returned ok=%v len=%d", ok, len(pts))
	}
	if pts[len(pts)-1].T != 96*1000 || pts[len(pts)-1].N != 4 {
		t.Errorf("last point = %+v, want T=96000 N=4", pts[len(pts)-1])
	}

	if _, ok := db.Query("missing", time.Time{}, time.Second); ok {
		t.Error("Query on a missing series reported ok")
	}
}

// latest returns the most recent sample of the named series.
func latest(db *DB, name string) (Sample, bool) {
	samples, ok := db.Samples(name)
	if !ok || len(samples) == 0 {
		return Sample{}, false
	}
	return samples[len(samples)-1], true
}

func TestDBNames(t *testing.T) {
	db := New(0, 0)
	if db.Resolution() != DefaultResolution || db.SeriesCap() != int(DefaultRetention/DefaultResolution) {
		t.Fatalf("defaults not applied: resolution %v, %d samples a series", db.Resolution(), db.SeriesCap())
	}
	db.Record("b", ms(1), 1)
	db.Record("a", ms(1), 1)
	db.Record("a", ms(2), 2)
	if got := db.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
}

// TestSeriesConcurrentRotation hammers one series with a single writer and
// several readers while the ring rotates; run under -race this pins the
// locking discipline, and the sortedness/size invariants catch torn reads.
func TestSeriesConcurrentRotation(t *testing.T) {
	db := New(time.Millisecond, 64*time.Millisecond) // cap 64: rotates fast
	const writes = 20000
	const readers = 4

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				samples, ok := db.Samples("hot")
				if !ok {
					continue
				}
				if len(samples) > db.SeriesCap() {
					t.Errorf("snapshot larger than cap: %d", len(samples))
					return
				}
				for i := 1; i < len(samples); i++ {
					if samples[i].T < samples[i-1].T {
						t.Errorf("snapshot out of order: %d before %d",
							samples[i].T, samples[i-1].T)
						return
					}
				}
				db.Query("hot", time.Time{}, 4*time.Millisecond)
				db.Stats()
				db.Names()
			}
		}()
	}

	for i := int64(0); i < writes; i++ {
		db.Record("hot", ms(i), float64(i))
	}
	close(done)
	wg.Wait()

	st := db.Stats()
	if st.Samples != 64 || st.Dropped != writes-64 {
		t.Errorf("Stats after hammer = %+v, want 64 retained, %d dropped", st, writes-64)
	}
}

func TestSamplerSampleOnce(t *testing.T) {
	db := New(time.Second, time.Minute)
	var calls int
	src := func(rec func(string, float64)) {
		calls++
		rec("x", float64(calls))
	}
	var ticks []time.Time
	s := NewSampler(db, src, nil) // nil sources are dropped
	s.OnTick(func(now time.Time) { ticks = append(ticks, now) })

	s.SampleOnce(ms(1000))
	s.SampleOnce(ms(2000))
	samples, _ := db.Samples("x")
	if len(samples) != 2 || samples[0].T != 1000 || samples[1].V != 2 {
		t.Fatalf("samples = %+v", samples)
	}
	if len(ticks) != 2 || !ticks[1].Equal(ms(2000)) {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestSamplerStartStop(t *testing.T) {
	db := New(time.Millisecond, time.Second)
	s := NewSampler(db, func(rec func(string, float64)) { rec("g", 1) })
	s.Start()
	deadline := time.After(2 * time.Second)
	for {
		if samples, ok := db.Samples("g"); ok && len(samples) >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler never produced 3 samples")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.Stop()
	s.Stop() // idempotent
	n := len(mustSamples(t, db, "g"))
	time.Sleep(20 * time.Millisecond)
	if got := len(mustSamples(t, db, "g")); got != n {
		t.Errorf("sampler kept recording after Stop: %d -> %d", n, got)
	}
}

func mustSamples(t *testing.T, db *DB, name string) []Sample {
	t.Helper()
	s, ok := db.Samples(name)
	if !ok {
		t.Fatalf("series %q missing", name)
	}
	return s
}

func TestRuntimeSource(t *testing.T) {
	db := New(time.Second, time.Minute)
	s := NewSampler(db, RuntimeSource())
	runtime.GC() // /gc/heap/live and /gc/cycles are zero until a first GC
	s.SampleOnce(ms(1000))
	for _, name := range []string{"runtime_heap_live_bytes", "runtime_goroutines", "runtime_gc_cycles_total"} {
		last, ok := latest(db, name)
		if !ok {
			t.Fatalf("runtime source recorded no %s; have %v", name, db.Names())
		}
		if last.V <= 0 {
			t.Errorf("%s = %g, want > 0", name, last.V)
		}
	}
}
