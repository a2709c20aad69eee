// Command ccmload is an open-loop load generator for ccmserve: it submits
// sweep jobs at a target rate regardless of how fast the server completes
// them (so overload shows up as queue growth, backpressure rejections, and
// SLO burn — exactly what a closed-loop driver would hide), then reports
// end-to-end latency percentiles and checks the server's own verdicts.
//
//	ccmload -addr 127.0.0.1:8080 -rps 2 -duration 20s \
//	    -max-p99 10s -fail-on-alerts \
//	    -check-series serve_queue_len,sessions_total,runtime_goroutines
//
// Series names follow the registry's naming rule: a /metrics family minus
// its netags_ prefix (netags_sessions_total → sessions_total; see
// obs.Registry).
//
// Exit codes: 0 success, 1 operational error (server unreachable, bad
// flags), 2 at least one SLO violation (-max-p99 exceeded, unfinished jobs
// under -max-p99, firing alerts under -fail-on-alerts, or a -check-series
// name missing/empty).
//
// 429 backpressure — a full worker queue or a cluster router shedding load
// — is not a hard failure: each shed submission retries after a jittered
// Retry-After wait until admitted or the drain deadline passes, and the
// summary reports the shed-rate separately. -report-json writes the whole
// summary machine-readably (a path, or "-" for stdout).
//
// The job mix: each submission is "small" or "large" (-large-ratio), and
// "interactive" or "bulk" (-bulk-ratio), drawn from a seeded PRNG so a
// given flag set replays the same schedule. Seeds vary per submission so
// every job is a genuine cache miss; pass -unique=false to let the result
// cache absorb repeats instead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netags/internal/serve"
)

func main() {
	violations, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccmload:", err)
		os.Exit(1)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "ccmload: VIOLATION:", v)
		}
		os.Exit(2)
	}
}

// jobSpec builds one submission's spec from the size class. On one worker
// (2-core Xeon) "small" computes in a few milliseconds and "large", at the
// paper's n = 10^4, in about 0.4 s: a spread that makes a priority mix
// meaningful, and 10 large jobs a second overload one worker.
func jobSpec(large bool, seed uint64) serve.JobSpec {
	if large {
		return serve.JobSpec{N: 10000, Trials: 2, RValues: []float64{3, 5, 7, 9}, Seed: seed}
	}
	return serve.JobSpec{N: 400, Trials: 1, RValues: []float64{4, 6}, Seed: seed}
}

// result is one submission's outcome.
type result struct {
	rejected bool // shed to the end: never admitted before the deadline
	failed   bool // submit error or terminal failed/canceled
	finished bool
	e2e      time.Duration
}

type counters struct {
	mu        sync.Mutex
	submitted int
	results   []result
	// shed counts every 429 answer received, including ones later retried
	// into admission — the numerator of the reported shed-rate.
	shed atomic.Int64
}

func (c *counters) add(r result) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func run(ctx context.Context, args []string, out io.Writer) ([]string, error) {
	fs := flag.NewFlagSet("ccmload", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "", "ccmserve address (host:port), required")
		rps          = fs.Float64("rps", 2, "target submissions per second (open loop)")
		duration     = fs.Duration("duration", 20*time.Second, "load generation window")
		drain        = fs.Duration("drain", 60*time.Second, "extra time to wait for in-flight jobs after generation ends")
		bulkRatio    = fs.Float64("bulk-ratio", 0.2, "fraction of submissions in the bulk priority class")
		largeRatio   = fs.Float64("large-ratio", 0.2, "fraction of submissions using the large job preset")
		clients      = fs.Int("clients", 4, "distinct client identities to spread submissions across")
		seed         = fs.Uint64("seed", 1, "base PRNG seed; per-job spec seeds derive from it")
		unique       = fs.Bool("unique", true, "give every job a distinct seed (cache miss); false exercises the result cache")
		maxP99       = fs.Duration("max-p99", 0, "fail (exit 2) when the completed-job e2e p99 exceeds this (0 = no bound)")
		failOnAlerts = fs.Bool("fail-on-alerts", false, "fail (exit 2) when /api/v1/alerts reports firing rules after the run")
		checkSeries  = fs.String("check-series", "", "comma-separated series names that must be non-empty on /api/v1/timeseries")
		reportJSON   = fs.String("report-json", "", "write the machine-readable summary to this path ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *addr == "" {
		return nil, errors.New("-addr is required")
	}
	if *rps <= 0 {
		return nil, errors.New("-rps must be > 0")
	}
	base := "http://" + *addr
	cl := &serve.Client{BaseURL: base}
	rng := rand.New(rand.NewPCG(*seed, 0xccb10ad))

	// One quick health probe so a typo'd address fails fast and clearly
	// instead of as a pile of per-job errors.
	if err := probe(ctx, base); err != nil {
		return nil, err
	}

	var (
		cnt     counters
		wg      sync.WaitGroup
		stopGen = time.After(*duration)
		tick    = time.NewTicker(time.Duration(float64(time.Second) / *rps))
	)
	defer tick.Stop()
	start := time.Now()
	fmt.Fprintf(out, "ccmload: driving %s at %.1f rps for %s (bulk %.0f%%, large %.0f%%)\n",
		*addr, *rps, *duration, *bulkRatio*100, *largeRatio*100)

	awaitCtx, cancelAwait := context.WithDeadline(ctx, start.Add(*duration+*drain))
	defer cancelAwait()

	i := 0
gen:
	for {
		select {
		case <-ctx.Done():
			break gen
		case <-stopGen:
			break gen
		case <-tick.C:
		}
		i++
		cnt.submitted++
		large := rng.Float64() < *largeRatio
		bulk := rng.Float64() < *bulkRatio
		specSeed := *seed
		if *unique {
			specSeed = *seed + uint64(i)
		}
		spec := jobSpec(large, specSeed)
		opts := serve.SubmitOptions{Client: fmt.Sprintf("load-%d", i%*clients)}
		if bulk {
			opts.Priority = serve.PriorityBulk
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sub, err := submitHonoringShed(awaitCtx, cl, &cnt, spec, opts)
			if err != nil {
				var busy *serve.ErrBusy
				if errors.As(err, &busy) {
					cnt.add(result{rejected: true})
				} else {
					cnt.add(result{failed: true})
				}
				return
			}
			st, err := cl.Await(awaitCtx, sub.ID, nil)
			switch {
			case err != nil:
				cnt.add(result{}) // unfinished: deadline passed while queued/running
			case st.State == serve.StateDone:
				cnt.add(result{finished: true, e2e: time.Since(t0)})
			default:
				cnt.add(result{failed: true})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Tally.
	var accepted, rejected, failed, finished, unfinished int
	var lats []time.Duration
	for _, r := range cnt.results {
		switch {
		case r.rejected:
			rejected++
		case r.failed:
			failed++
		case r.finished:
			accepted++
			finished++
			lats = append(lats, r.e2e)
		default:
			accepted++
			unfinished++
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p50, p90, p99 := percentile(lats, 0.50), percentile(lats, 0.90), percentile(lats, 0.99)

	// Shed-rate: 429 answers over submission attempts (first tries plus the
	// retries those 429s triggered).
	sheds := cnt.shed.Load()
	shedRate := 0.0
	if attempts := int64(cnt.submitted) + sheds; attempts > 0 {
		shedRate = float64(sheds) / float64(attempts)
	}

	fmt.Fprintf(out, "ccmload: submitted=%d accepted=%d rejected=%d failed=%d finished=%d unfinished=%d in %s (%.2f rps achieved)\n",
		cnt.submitted, accepted, rejected, failed, finished, unfinished,
		elapsed.Round(time.Millisecond), float64(cnt.submitted)/elapsed.Seconds())
	fmt.Fprintf(out, "ccmload: shed responses=%d shed-rate=%.1f%% (429s retried with jittered Retry-After)\n",
		sheds, shedRate*100)
	fmt.Fprintf(out, "ccmload: e2e latency p50=%s p90=%s p99=%s (n=%d)\n",
		p50.Round(time.Millisecond), p90.Round(time.Millisecond), p99.Round(time.Millisecond), len(lats))

	var violations []string
	if *maxP99 > 0 {
		if unfinished > 0 {
			violations = append(violations,
				fmt.Sprintf("%d jobs still unfinished after drain — treat as p99 breach", unfinished))
		}
		if p99 > *maxP99 {
			violations = append(violations, fmt.Sprintf("e2e p99 %s exceeds bound %s", p99, *maxP99))
		}
	}
	if failed > 0 {
		violations = append(violations, fmt.Sprintf("%d jobs failed", failed))
	}

	if *failOnAlerts {
		firing, names, err := fetchAlerts(ctx, base)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "ccmload: alerts firing=%d %v\n", firing, names)
		if firing > 0 {
			violations = append(violations, fmt.Sprintf("alerts firing after run: %v", names))
		}
	}
	if *checkSeries != "" {
		missing, err := checkTimeseries(ctx, base, strings.Split(*checkSeries, ","))
		if err != nil {
			return nil, err
		}
		if len(missing) > 0 {
			violations = append(violations, fmt.Sprintf("timeseries empty or missing: %v", missing))
		} else {
			fmt.Fprintf(out, "ccmload: timeseries check passed (%s)\n", *checkSeries)
		}
	}
	if *reportJSON != "" {
		rep := report{
			Submitted: cnt.submitted, Accepted: accepted, Rejected: rejected,
			Failed: failed, Finished: finished, Unfinished: unfinished,
			ShedResponses: sheds, ShedRate: shedRate,
			P50Ms:       float64(p50) / float64(time.Millisecond),
			P90Ms:       float64(p90) / float64(time.Millisecond),
			P99Ms:       float64(p99) / float64(time.Millisecond),
			ElapsedS:    elapsed.Seconds(),
			AchievedRPS: float64(cnt.submitted) / elapsed.Seconds(),
			Violations:  violations,
		}
		if err := writeReport(rep, *reportJSON, out); err != nil {
			return nil, fmt.Errorf("-report-json: %w", err)
		}
	}
	return violations, nil
}

// submitHonoringShed submits, treating every 429 as backpressure to wait
// out rather than a hard failure: it sleeps a jittered fraction of the
// server's Retry-After hint (full jitter, so a herd of shed clients does
// not re-converge on the recovery instant) and retries until admission or
// ctx's deadline. Every 429 received is counted toward the shed-rate; only
// a submission never admitted before the deadline comes back as ErrBusy.
func submitHonoringShed(ctx context.Context, cl *serve.Client, cnt *counters, spec serve.JobSpec, opts serve.SubmitOptions) (serve.SubmitResponse, error) {
	for {
		sub, err := cl.Submit(ctx, spec, opts)
		var busy *serve.ErrBusy
		if !errors.As(err, &busy) {
			return sub, err
		}
		cnt.shed.Add(1)
		hint := busy.RetryAfter
		if hint <= 0 {
			hint = time.Second
		}
		wait := time.Duration(rand.Float64() * float64(hint))
		if wait < 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return serve.SubmitResponse{}, busy
		case <-t.C:
		}
	}
}

// report is the -report-json document: the printed summary, machine-
// readable.
type report struct {
	Submitted     int      `json:"submitted"`
	Accepted      int      `json:"accepted"`
	Rejected      int      `json:"rejected"`
	Failed        int      `json:"failed"`
	Finished      int      `json:"finished"`
	Unfinished    int      `json:"unfinished"`
	ShedResponses int64    `json:"shed_responses"`
	ShedRate      float64  `json:"shed_rate"`
	P50Ms         float64  `json:"p50_ms"`
	P90Ms         float64  `json:"p90_ms"`
	P99Ms         float64  `json:"p99_ms"`
	ElapsedS      float64  `json:"elapsed_s"`
	AchievedRPS   float64  `json:"achieved_rps"`
	Violations    []string `json:"violations"`
}

// writeReport renders the report to path ("-" = out, the ccmload stdout).
func writeReport(rep report, path string, out io.Writer) error {
	if rep.Violations == nil {
		rep.Violations = []string{}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = out.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func probe(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("server unreachable: %w", err)
	}
	resp.Body.Close()
	return nil
}

// fetchAlerts reads /api/v1/alerts and returns the firing count and names.
func fetchAlerts(ctx context.Context, base string) (int, []string, error) {
	var body struct {
		Firing int `json:"firing"`
		Alerts []struct {
			Rule   string `json:"rule"`
			Firing bool   `json:"firing"`
		} `json:"alerts"`
	}
	if err := getJSON(ctx, base+"/api/v1/alerts", &body); err != nil {
		return 0, nil, fmt.Errorf("alerts: %w", err)
	}
	var names []string
	for _, a := range body.Alerts {
		if a.Firing {
			names = append(names, a.Rule)
		}
	}
	return body.Firing, names, nil
}

// checkTimeseries verifies each named series exists with at least one
// point on /api/v1/timeseries.
func checkTimeseries(ctx context.Context, base string, names []string) ([]string, error) {
	var body struct {
		Series map[string][]struct {
			T int64   `json:"t"`
			V float64 `json:"v"`
		} `json:"series"`
	}
	if err := getJSON(ctx, base+"/api/v1/timeseries", &body); err != nil {
		return nil, fmt.Errorf("timeseries: %w", err)
	}
	var missing []string
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if pts := body.Series[n]; len(pts) == 0 {
			missing = append(missing, n)
		}
	}
	return missing, nil
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
