package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"netags/internal/obs/timeseries"
)

// sampleOnce records one pass of the manager's registry source.
func sampleOnce(t *testing.T, m *Manager, wanted ...string) map[string]float64 {
	t.Helper()
	got := map[string]float64{}
	m.Registry().Source(wanted...)(func(name string, v float64) {
		if _, dup := got[name]; dup {
			t.Errorf("series %q recorded twice in one pass", name)
		}
		got[name] = v
	})
	return got
}

// TestTimeseriesSourceSeries: the manager's registry, as a sampler source,
// emits the serve-layer series under the naming rule — queue, jobs,
// cache, histogram counts, the HTTP totals, and a histogram cut only when
// asked for — with sane values after one job.
func TestTimeseriesSourceSeries(t *testing.T) {
	ts, m := newTestServer(t, Config{Workers: 1, run: stubRun(nil, nil)})
	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sub, err := cl.Submit(ctx, streamSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Await(ctx, sub.ID, nil); err != nil {
		t.Fatal(err)
	}

	got := sampleOnce(t, m, "serve_e2e_ms_le_4095")
	for _, name := range []string{
		"serve_queue_len", "serve_queue_fill",
		"serve_queue_class_len:interactive", "serve_queue_class_len:bulk",
		"serve_jobs_running", "serve_jobs_executed_total",
		"serve_jobs_deduplicated_total", "serve_jobs_rejected_total",
		"serve_points_resumed_total",
		"serve_cache_hits_total", "serve_cache_misses_total",
		"serve_cache_entries", "serve_cache_bytes",
		"serve_e2e_ms_count", "serve_e2e_ms_le_4095", "serve_point_ms_count",
		"serve_queue_wait_ms_count:interactive",
		"http_requests_total", "http_requests_good_total",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("series %q missing", name)
		}
	}
	if _, ok := got["serve_point_ms_le_1023"]; ok {
		t.Error("an unrequested histogram cut was sampled")
	}
	if got["serve_jobs_executed_total"] != 1 {
		t.Errorf("serve_jobs_executed_total = %g, want 1", got["serve_jobs_executed_total"])
	}
	if got["serve_e2e_ms_count"] != 1 {
		t.Errorf("serve_e2e_ms_count = %g, want 1", got["serve_e2e_ms_count"])
	}
	if good, total := got["serve_e2e_ms_le_4095"], got["serve_e2e_ms_count"]; good > total {
		t.Errorf("good %g > total %g", good, total)
	}
	if got["http_requests_good_total"] > got["http_requests_total"] || got["http_requests_total"] == 0 {
		t.Errorf("http good %g, total %g", got["http_requests_good_total"], got["http_requests_total"])
	}
}

// TestHistoryIgnoresClientNames: client names come from requests, so
// queueing work under many of them must not add series to the history —
// the DB's series count after sampling is the same as for one client.
func TestHistoryIgnoresClientNames(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueDepth: 64, run: stubRun(nil, gate)})
	defer m.Shutdown(context.Background())
	defer close(gate)

	seriesAfter := func(clients int) int {
		for i := 0; i < clients; i++ {
			spec := testSpec(1000*clients + i)
			if _, _, err := m.Submit(spec, SubmitOptions{Client: fmt.Sprintf("client-%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		db := timeseries.New(time.Second, time.Minute)
		timeseries.NewSampler(db, m.Registry().Source()).SampleOnce(time.Now())
		return db.Stats().Series
	}
	one := seriesAfter(1)
	if many := seriesAfter(40); many != one {
		t.Errorf("40 queued clients sampled %d series, one client %d", many, one)
	}
}

// TestDefaultSLORulesValid: every built-in rule validates, names are
// unique, and each series a rule references is one the manager's registry
// records (CheckRules, as ccmserve runs it at startup).
func TestDefaultSLORulesValid(t *testing.T) {
	m := NewManager(Config{Workers: 1, run: stubRun(nil, nil)})
	defer m.Shutdown(context.Background())
	rules := DefaultSLORules()
	if len(rules) == 0 {
		t.Fatal("no default rules")
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			t.Errorf("rule %q invalid: %v", r.Name, err)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if err := timeseries.CheckRules(rules, m.Registry().HasSeries); err != nil {
		t.Error(err)
	}
	recorded := sampleOnce(t, m, timeseries.Series(rules)...)
	for _, s := range timeseries.Series(rules) {
		if _, ok := recorded[s]; !ok {
			t.Errorf("rule series %q is not recorded", s)
		}
	}
}

// TestTimeseriesSourceFeedsEvaluator: wiring the registry into a DB and
// the default rules through an evaluator must work end to end — the idle
// manager stays quiet (no rule fires with no traffic).
func TestTimeseriesSourceFeedsEvaluator(t *testing.T) {
	_, m := newTestServer(t, Config{Workers: 1, run: stubRun(nil, nil)})
	db := timeseries.New(10*time.Millisecond, time.Minute)
	rules := DefaultSLORules()
	eval := timeseries.NewEvaluator(db, rules, nil)
	sampler := timeseries.NewSampler(db, m.Registry().Source(timeseries.Series(rules)...))
	now := time.Now()
	for i := 0; i < 5; i++ {
		sampler.SampleOnce(now.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	eval.Evaluate(now.Add(50 * time.Millisecond))
	if n := eval.FiringCount(); n != 0 {
		t.Fatalf("idle manager fired %d rules: %+v", n, eval.States())
	}
}

// TestDefaultSLORulesFireAndResolve drives every built-in serve rule from
// quiet to firing and back to resolved through the registry-fed sampler
// and the evaluator on a synthetic clock: each rule's stimulus moves only
// the state its series read, and the rule then resolves once its window
// has passed with no further trouble.
func TestDefaultSLORulesFireAndResolve(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	started := make(chan struct{}, 4)
	run := func(ctx context.Context, spec JobSpec, workers int, h runHooks) error {
		started <- struct{}{}
		<-gate
		emitStubPoints(spec, h)
		return nil
	}
	m := NewManager(Config{Workers: 1, QueueDepth: 2, run: run})
	defer m.Shutdown(context.Background())
	defer open()
	var ids []string
	stimulus := map[string]func(t *testing.T){
		"job_e2e_burn": func(t *testing.T) {
			for i := 0; i < 10; i++ {
				m.slo.e2e.Observe(5000)
			}
		},
		"point_latency_burn": func(t *testing.T) {
			for i := 0; i < 30; i++ {
				m.slo.point.Observe(2000)
			}
		},
		"http_error_burn": func(t *testing.T) {
			for i := 0; i < 20; i++ {
				m.http.observe("GET /api/v1/jobs", 500, time.Millisecond)
			}
		},
		"queue_saturation": func(t *testing.T) {
			// One job runs (held at the gate), two fill the queue.
			for i := 0; i < 3; i++ {
				st, _, err := m.Submit(testSpec(70+i), SubmitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
				if i == 0 {
					<-started
				}
			}
		},
	}
	calm := map[string]func(t *testing.T){
		"queue_saturation": func(t *testing.T) {
			open()
			for _, id := range ids {
				<-m.jobRecord(id).Done()
			}
		},
	}
	rules := DefaultSLORules()
	db := timeseries.New(time.Second, time.Hour)
	eval := timeseries.NewEvaluator(db, rules, nil)
	sampler := timeseries.NewSampler(db, m.Registry().Source(timeseries.Series(rules)...))
	sampler.OnTick(eval.Evaluate)
	now := time.Unix(1_700_000_000, 0)
	tick := func(d time.Duration) {
		now = now.Add(d)
		sampler.SampleOnce(now)
	}
	firing := func(name string) bool {
		i := slices.IndexFunc(eval.States(), func(s timeseries.AlertState) bool { return s.Rule == name })
		return eval.States()[i].Firing
	}

	for _, r := range rules {
		t.Run(r.Name, func(t *testing.T) {
			tick(time.Second)
			if firing(r.Name) {
				t.Fatal("firing before its stimulus")
			}
			stimulus[r.Name](t)
			window := time.Duration(r.WindowS * float64(time.Second))
			tick(time.Second)
			if !r.IsBurn() {
				tick(window) // the window mean must see only the stimulus
			}
			if !firing(r.Name) {
				t.Fatalf("did not fire: %+v", eval.States())
			}
			if c := calm[r.Name]; c != nil {
				c(t)
			}
			tick(window + time.Second)
			tick(time.Second)
			if firing(r.Name) {
				t.Fatalf("did not resolve: %+v", eval.States())
			}
		})
	}
	for name := range stimulus {
		if !slices.ContainsFunc(rules, func(r timeseries.Rule) bool { return r.Name == name }) {
			t.Errorf("stimulus for unknown rule %s", name)
		}
	}
}
