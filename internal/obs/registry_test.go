package obs

import (
	"strings"
	"testing"
)

func sampled(reg *Registry, wanted ...string) map[string]float64 {
	got := map[string]float64{}
	reg.Source(wanted...)(func(name string, v float64) { got[name] = v })
	return got
}

// TestRegistrySeriesNamingRule: every family's series follow the one rule
// — prefix dropped, histograms as _count plus requested _le_ cuts, labeled
// children suffixed with their values — and HasSeries agrees with it.
func TestRegistrySeriesNamingRule(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("netags_jobs_total", "Jobs.").Add(3)
	reg.Gauge("netags_queue_len", "Queue.").Add(2)
	h := reg.Histogram("netags_lat_ms", "Latency.")
	for _, v := range []int64{0, 3, 1000, 5000} {
		h.Observe(v)
	}
	byClass := reg.HistogramVec("netags_wait_ms", "Wait.", "class")
	byClass.With("bulk").Observe(10)
	reg.VecFunc("netags_open", "Open.", "gauge", []string{"backend", "zone"},
		func(emit func(float64, ...string)) { emit(1, "10.0.0.1:80", "a") })

	got := sampled(reg, "lat_ms_le_1023", "wait_ms_le_15:bulk", "lat_ms_le_1000", "jobs_total")
	want := map[string]float64{
		"jobs_total":         3,
		"queue_len":          2,
		"lat_ms_count":       4,
		"lat_ms_le_1023":     3, // 0, 3 and 1000
		"wait_ms_count:bulk": 1,
		"wait_ms_le_15:bulk": 1,
		"open:10.0.0.1:80:a": 1,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v (all: %v)", name, got[name], v, got)
		}
		if !reg.HasSeries(name) {
			t.Errorf("HasSeries(%q) = false", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("sampled %d series, want %d: %v", len(got), len(want), got)
	}
	for _, name := range []string{
		"lat_ms", "lat_ms_le_1000", "wait_ms_count", "queue_len:x", "open", "netags_jobs_total", "jobs",
	} {
		if reg.HasSeries(name) {
			t.Errorf("HasSeries(%q) = true", name)
		}
	}
}

// TestRegistryExposeOnly: an ExposeOnly family renders on /metrics but
// is neither sampled nor a known series.
func TestRegistryExposeOnly(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("netags_jobs_total", "Jobs.").Add(1)
	reg.VecFunc("netags_per_client", "Per client.", "gauge", []string{"client"},
		func(emit func(float64, ...string)) { emit(2, "alice") })
	reg.ExposeOnly("netags_per_client")

	if got := sampled(reg); len(got) != 1 || got["jobs_total"] != 1 {
		t.Errorf("sampled %v, want only jobs_total", got)
	}
	if reg.HasSeries("per_client:alice") {
		t.Error("HasSeries reports an ExposeOnly family")
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `netags_per_client{client="alice"} 2`) {
		t.Errorf("ExposeOnly family missing from the exposition:\n%s", b.String())
	}
}

// TestRegistryWriteText: the exposition declares each family once, renders
// labeled children sorted with cumulative buckets, and omits a labeled
// family that has no children yet.
func TestRegistryWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("netags_a_total", "A.").Add(1)
	vec := reg.HistogramVec("netags_b_ms", "B.", "route", "status")
	vec.With("y", "200").Observe(2)
	vec.With("x", "500").Observe(0)
	reg.CounterVec("netags_empty_total", "Never touched.", "k")
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP netags_a_total A.
# TYPE netags_a_total counter
netags_a_total 1
# HELP netags_b_ms B.
# TYPE netags_b_ms histogram
netags_b_ms_bucket{route="x",status="500",le="0"} 1
netags_b_ms_bucket{route="x",status="500",le="+Inf"} 1
netags_b_ms_sum{route="x",status="500"} 0
netags_b_ms_count{route="x",status="500"} 1
netags_b_ms_bucket{route="y",status="200",le="0"} 0
netags_b_ms_bucket{route="y",status="200",le="1"} 0
netags_b_ms_bucket{route="y",status="200",le="3"} 1
netags_b_ms_bucket{route="y",status="200",le="+Inf"} 1
netags_b_ms_sum{route="y",status="200"} 2
netags_b_ms_count{route="y",status="200"} 1
`
	if sb.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRegistryRegisterOnce: registering a name again returns the same
// handle; a different shape under the same name panics.
func TestRegistryRegisterOnce(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("netags_x_total", "X.") != reg.Counter("netags_x_total", "X.") {
		t.Error("second registration returned a new handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a gauge did not panic")
		}
	}()
	reg.Gauge("netags_x_total", "X.")
}

// TestVecWithAllocFree: resolving an existing child allocates nothing, so
// per-request label lookups stay on the zero-alloc path.
func TestVecWithAllocFree(t *testing.T) {
	vec := NewRegistry().HistogramVec("netags_http_ms", "H.", "route", "status")
	vec.With("GET /x", "200")
	if n := testing.AllocsPerRun(100, func() { vec.With("GET /x", "200").Observe(1) }); n != 0 {
		t.Errorf("With+Observe allocates %.1f/op", n)
	}
}
