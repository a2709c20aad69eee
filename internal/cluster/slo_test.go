package cluster

import (
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"netags/internal/obs/timeseries"
)

// TestClusterSLORulesFireAndResolve drives every built-in router rule from
// quiet to firing and back to resolved through the registry-fed sampler
// and the evaluator on a synthetic clock. forward_error_burn fires on
// requests no backend answered, which needs good (answered) and total
// (received) to be different counters.
func TestClusterSLORulesFireAndResolve(t *testing.T) {
	down := newStubBackend("down")
	defer down.Close()
	down.status.Store(http.StatusServiceUnavailable)
	rt, srv := newTestRouter(t, RouterConfig{}, down)

	rules := DefaultSLORules()
	if err := timeseries.CheckRules(rules, rt.Registry().HasSeries); err != nil {
		t.Fatal(err)
	}
	db := timeseries.New(time.Second, time.Hour)
	eval := timeseries.NewEvaluator(db, rules, nil)
	sampler := timeseries.NewSampler(db, rt.Registry().Source(timeseries.Series(rules)...))
	sampler.OnTick(eval.Evaluate)
	now := time.Unix(1_700_000_000, 0)
	tick := func(d time.Duration) {
		now = now.Add(d)
		sampler.SampleOnce(now)
	}
	firing := func(name string) bool {
		states := eval.States()
		return states[slices.IndexFunc(states, func(s timeseries.AlertState) bool { return s.Rule == name })].Firing
	}
	breaker := rt.breakers[0]

	stimulus := map[string]func(t *testing.T){
		"cluster_breaker_open": func(t *testing.T) {
			for i := 0; i < 5; i++ {
				_, probe, gen := breaker.Allow(now)
				breaker.Record(now, false, probe, gen)
			}
		},
		"admit_shed_burn": func(t *testing.T) {
			rt.submits.Add(10) // received, none admitted
		},
		"forward_error_burn": func(t *testing.T) {
			for i := 0; i < 20; i++ {
				resp, err := http.Get(srv.URL + "/api/v1/jobs/" + strings.Repeat("a", 64))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		},
	}
	calm := map[string]func(t *testing.T){
		"cluster_breaker_open": func(t *testing.T) {
			later := now.Add(time.Minute) // past the cooldown
			for i := 0; i < 2; i++ {
				ok, probe, gen := breaker.Allow(later)
				if !ok {
					t.Fatal("half-open breaker refused its probe")
				}
				breaker.Record(later, true, probe, gen)
			}
		},
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
}
