// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout (the Makefile's bench target pipes through it to write
// BENCH_observability.json). Each benchmark line is kept verbatim in "raw",
// so `jq -r '.benchmarks[].raw'` reconstructs a benchstat-compatible input,
// alongside the parsed ns/op, B/op, and allocs/op. Repeated -count runs are
// rolled up into per-benchmark summary statistics in "summary".
//
// The compare subcommand turns the document into a regression gate:
//
//	go test -bench=. -benchmem -count=3 ./... \
//	    | benchjson compare -baseline BENCH_observability.json
//
// reads fresh benchmark output on stdin, aggregates it the same way, and
// exits 1 when any benchmark's mean ns/op or allocs/op regressed beyond the
// tolerance relative to the committed baseline (exit 2 on usage/parse
// errors, so CI can tell "slower" from "broken"). Next to each mean delta
// it prints the two-sided Mann–Whitney U p-value of the ns/op samples
// (mannWhitney), which reports whether the shift stands out from the runs'
// spread, and a shift verdict: faster, slower or unresolved (see shift).
// Neither enters the pass/fail verdict.
//
// The ab subcommand reads two files of interleaved-pair output, a base
// revision's and a change's: go test benchmarks (make bench-ab) or the
// repository benchmark's JSON result lines (make bench-ab-e2e). It prints
// per benchmark, or per end-to-end metric, the change's wins, both
// medians, the base's interquartile range and a one-sided sign-test p
// (see runAB).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// benchLine matches the fixed prefix of a benchmark result line; the metric
// pairs ("67264 ns/op", "20 allocs/op") are picked up separately.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	metric    = regexp.MustCompile(`([\d.]+)\s+(\S+)`)
	// cpuSuffix is the trailing -N that `go test` appends to benchmark names
	// when GOMAXPROCS != 1; stripped when grouping runs into summaries so a
	// baseline recorded on one machine compares against another, and
	// recorded in the document's gomaxprocs.
	cpuSuffix = regexp.MustCompile(`-(\d+)$`)
)

type result struct {
	Name string `json:"name"`
	Iter int64  `json:"iterations"`
	// NsPerOp, BytesPerOp, and AllocsPerOp are 0 when the line did not
	// report that metric.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Raw         string  `json:"raw"`
}

// stat aggregates one metric across a benchmark's repeated -count runs.
type stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func newStat(vs []float64) stat {
	s := stat{Min: vs[0], Max: vs[0]}
	for _, v := range vs {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(vs))
	return s
}

// summary is the per-benchmark rollup: all runs sharing a normalized name
// (the -GOMAXPROCS suffix stripped) reduced to mean/min/max per metric.
type summary struct {
	Name        string `json:"name"`
	Runs        int    `json:"runs"`
	NsPerOp     stat   `json:"ns_per_op"`
	BytesPerOp  stat   `json:"bytes_per_op"`
	AllocsPerOp stat   `json:"allocs_per_op"`
	// nsRuns and allocRuns hold the ns/op and allocs/op of every run, in
	// run order, for the rank test and the ab pairs; they are rebuilt from
	// the raw benchmarks, not stored.
	nsRuns, allocRuns []float64
}

type document struct {
	// Goos/Goarch/CPU echo the go test preamble when present; Pkgs lists
	// every package a multi-package run printed a "pkg:" line for, in
	// order.
	Goos   string   `json:"goos,omitempty"`
	Goarch string   `json:"goarch,omitempty"`
	Pkgs   []string `json:"pkgs,omitempty"`
	CPU    string   `json:"cpu,omitempty"`
	// GOMAXPROCS lists, ascending, the distinct GOMAXPROCS values the runs
	// used, read from each name's -N suffix (1 when a name carries none).
	// More than one value means a -cpu list; the summaries still merge
	// across them.
	GOMAXPROCS []int     `json:"gomaxprocs,omitempty"`
	Benchmarks []result  `json:"benchmarks"`
	Summary    []summary `json:"summary,omitempty"`
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "ab" {
		if err := runAB(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return
	}
	if len(args) > 0 && args[0] == "compare" {
		ok, err := runCompare(args[1:], os.Stdin, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	doc, err := parse(in)
	if err != nil {
		return err
	}
	doc.Summary = summarize(doc.Benchmarks)
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// parse reads `go test -bench` output into a document (without summaries).
func parse(in io.Reader) (document, error) {
	var doc document
	preamble := map[string]*string{
		"goos: ": &doc.Goos, "goarch: ": &doc.Goarch, "cpu: ": &doc.CPU,
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		for prefix, dst := range preamble {
			if len(line) > len(prefix) && line[:len(prefix)] == prefix {
				*dst = line[len(prefix):]
			}
		}
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok && pkg != "" && !slices.Contains(doc.Pkgs, pkg) {
			doc.Pkgs = append(doc.Pkgs, pkg)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iter, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return doc, fmt.Errorf("line %q: %w", line, err)
		}
		r := result{Name: m[1], Iter: iter, Raw: line}
		for _, pair := range metric.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
		procs := 1
		if m := cpuSuffix.FindStringSubmatch(r.Name); m != nil {
			procs, _ = strconv.Atoi(m[1]) // the regexp admits only digits
		}
		if !slices.Contains(doc.GOMAXPROCS, procs) {
			doc.GOMAXPROCS = append(doc.GOMAXPROCS, procs)
		}
	}
	slices.Sort(doc.GOMAXPROCS)
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("no benchmark lines on stdin")
	}
	return doc, nil
}

// normalize strips the -GOMAXPROCS suffix so runs of the same benchmark on
// differently-sized machines group under one summary name.
func normalize(name string) string {
	return cpuSuffix.ReplaceAllString(name, "")
}

// summarize groups results by normalized name, preserving first-seen order.
func summarize(bs []result) []summary {
	type acc struct{ ns, bytes, allocs []float64 }
	byName := map[string]*acc{}
	var order []string
	for _, b := range bs {
		name := normalize(b.Name)
		a := byName[name]
		if a == nil {
			a = &acc{}
			byName[name] = a
			order = append(order, name)
		}
		a.ns = append(a.ns, b.NsPerOp)
		a.bytes = append(a.bytes, b.BytesPerOp)
		a.allocs = append(a.allocs, b.AllocsPerOp)
	}
	out := make([]summary, 0, len(order))
	for _, name := range order {
		a := byName[name]
		out = append(out, summary{
			Name:        name,
			Runs:        len(a.ns),
			NsPerOp:     newStat(a.ns),
			BytesPerOp:  newStat(a.bytes),
			AllocsPerOp: newStat(a.allocs),
			nsRuns:      a.ns,
			allocRuns:   a.allocs,
		})
	}
	return out
}

// runCompare implements the `compare` subcommand: fresh bench output on in,
// the committed baseline JSON named by -baseline. Returns ok=false when a
// regression beyond tolerance was found (the caller exits 1), an error for
// usage or parse failures (exit 2).
func runCompare(args []string, in io.Reader, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("benchjson compare", flag.ContinueOnError)
	var (
		baseline = fs.String("baseline", "", "baseline JSON document written by benchjson (required)")
		tol      = fs.Float64("tolerance", 0.30, "allowed fractional increase of mean ns/op over the baseline")
		allocTol = fs.Float64("alloc-tolerance", 0.10, "allowed fractional increase of mean allocs/op over the baseline")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *baseline == "" {
		return false, fmt.Errorf("compare: -baseline is required")
	}
	baseDoc, err := readBaseline(*baseline)
	if err != nil {
		return false, err
	}
	cur, err := parse(in)
	if err != nil {
		return false, err
	}
	return compare(out, baseDoc, summarize(cur.Benchmarks), *tol, *allocTol), nil
}

// readBaseline loads a benchjson document and ensures it carries summaries
// (documents written before the rollup existed only have raw benchmarks),
// each with its runs' ns/op from the raw benchmarks.
func readBaseline(path string) ([]summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(doc.Summary) > 0 {
		runs := map[string][]float64{}
		for _, s := range summarize(doc.Benchmarks) {
			runs[s.Name] = s.nsRuns
		}
		for i := range doc.Summary {
			doc.Summary[i].nsRuns = runs[doc.Summary[i].Name]
		}
		return doc.Summary, nil
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("baseline %s: no benchmarks", path)
	}
	return summarize(doc.Benchmarks), nil
}

// compare prints one verdict row per benchmark and reports overall success.
// A benchmark regresses when its mean ns/op exceeds the baseline mean by
// more than tol, or its mean allocs/op exceeds the baseline by more than
// allocTol plus half an allocation (the absolute slack keeps a 0→0.33
// flicker on a zero-alloc baseline from tripping the relative check). The
// row's p and shift are reported only.
func compare(out io.Writer, base, cur []summary, tol, allocTol float64) bool {
	curBy := map[string]summary{}
	for _, s := range cur {
		curBy[s.Name] = s
	}
	baseNames := map[string]bool{}
	shifts := map[string]int{}
	ok := true
	for _, b := range base {
		baseNames[b.Name] = true
		c, found := curBy[b.Name]
		if !found {
			fmt.Fprintf(out, "warn  %-50s missing from current run\n", b.Name)
			continue
		}
		verdict := "ok   "
		nsLimit := b.NsPerOp.Mean * (1 + tol)
		allocLimit := b.AllocsPerOp.Mean*(1+allocTol) + 0.5
		if c.NsPerOp.Mean > nsLimit || c.AllocsPerOp.Mean > allocLimit {
			verdict = "FAIL "
			ok = false
		}
		_, p := mannWhitney(b.nsRuns, c.nsRuns)
		d := delta(b.NsPerOp.Mean, c.NsPerOp.Mean)
		sh := shift(d, p)
		shifts[sh]++
		fmt.Fprintf(out, "%s %-50s ns/op %10.0f -> %10.0f (%+6.1f%%, p=%s, %-11s limit %+.0f%%)  allocs %6.1f -> %6.1f\n",
			verdict, b.Name,
			b.NsPerOp.Mean, c.NsPerOp.Mean, 100*d, formatP(p), sh+",", 100*tol,
			b.AllocsPerOp.Mean, c.AllocsPerOp.Mean)
	}
	for _, c := range cur {
		if !baseNames[c.Name] {
			fmt.Fprintf(out, "new   %-50s ns/op %10.0f  allocs %6.1f (not in baseline)\n",
				c.Name, c.NsPerOp.Mean, c.AllocsPerOp.Mean)
		}
	}
	fmt.Fprintf(out, "bench-compare: %d faster, %d slower, %d unresolved (p < %g and |change| > %.0f%%; report-only)\n",
		shifts["faster"], shifts["slower"], shifts["unresolved"], shiftLevel, 100*shiftMinEffect)
	if ok {
		fmt.Fprintf(out, "bench-compare: %d benchmarks within tolerance (ns/op +%.0f%%, allocs +%.0f%%)\n",
			len(base), 100*tol, 100*allocTol)
	} else {
		fmt.Fprintln(out, "bench-compare: regression detected")
	}
	return ok
}

// A row's shift resolves only when the rank test's p is below shiftLevel
// and its mean ns/op moved by more than shiftMinEffect of the baseline.
const (
	shiftLevel     = 0.05
	shiftMinEffect = 0.10
)

// shift labels a row's change of mean ns/op, d (a fraction of the
// baseline), given the rank test's p: "faster" or "slower" when both
// thresholds above are passed, "unresolved" otherwise. Either half alone
// misleads on a shared host: a host that drifts between the baseline and
// the check gives a small p to a shift of no practical size, and a large
// mean change over a few noisy runs can be chance.
func shift(d, p float64) string {
	switch {
	case !(p < shiftLevel) || math.Abs(d) <= shiftMinEffect:
		return "unresolved"
	case d < 0:
		return "faster"
	}
	return "slower"
}

// formatP renders a p-value, or "-" when there were no samples to rank.
func formatP(p float64) string {
	if math.IsNaN(p) {
		return "  -  "
	}
	return strconv.FormatFloat(p, 'f', 3, 64)
}

func delta(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base
}
