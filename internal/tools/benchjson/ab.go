package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// runAB implements the `ab` subcommand: two files written by interleaved
// pairs of runs, the base revision's and the change's. The i-th run in one
// file pairs with the i-th in the other, and the change wins a pair when
// it is better; ties count for neither. Report-only: it never fails on the
// numbers.
//
// The files hold either `go test -bench` output (scripts/bench_ab.sh) or
// the repository benchmark's JSON result lines, one per run
// (scripts/ccmbench_ab.sh). For go test output it prints per benchmark the
// change's wins on ns/op, both sides' median ns/op and allocs/op, the
// base's interquartile range, and the one-sided sign-test p of that many
// wins arising by chance. For result lines it prints the same for each
// end-to-end metric that benchmarkDecl declares, better in the direction
// its "better" names (see abResults).
func runAB(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson ab", flag.ContinueOnError)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("ab: want two files, base then change; got %d", fs.NArg())
	}
	var data [2][]byte
	for i, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[i] = b
	}
	switch base, change := resultLines(data[0]), resultLines(data[1]); {
	case base != change:
		return fmt.Errorf("ab: one file holds result lines and the other does not")
	case base:
		return abResults(data, benchmarkDecl, out)
	}
	var sides [2][]summary
	for i, path := range fs.Args() {
		doc, err := parse(bytes.NewReader(data[i]))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sides[i] = summarize(doc.Benchmarks)
	}
	change := map[string]summary{}
	for _, s := range sides[1] {
		change[s.Name] = s
	}
	fmt.Fprintf(out, "%-48s %7s %14s %14s %8s %12s %8s %s\n",
		"benchmark", "wins", "base ns/op", "change ns/op", "delta", "base IQR", "p(sign)", "allocs/op")
	for _, b := range sides[0] {
		c, ok := change[b.Name]
		if !ok {
			fmt.Fprintf(out, "%-48s missing from the change's runs\n", b.Name)
			continue
		}
		pairs := min(len(b.nsRuns), len(c.nsRuns))
		wins, ties := 0, 0
		for i := range pairs {
			switch {
			case c.nsRuns[i] < b.nsRuns[i]:
				wins++
			case c.nsRuns[i] == b.nsRuns[i]:
				ties++
			}
		}
		bm, cm := quantile(b.nsRuns, 0.5), quantile(c.nsRuns, 0.5)
		fmt.Fprintf(out, "%-48s %3d/%-3d %14.0f %14.0f %+7.1f%% %12.0f %8.4f %.0f→%.0f\n",
			b.Name, wins, pairs, bm, cm, 100*delta(bm, cm),
			quantile(b.nsRuns, 0.75)-quantile(b.nsRuns, 0.25), signP(wins, pairs-ties),
			quantile(b.allocRuns, 0.5), quantile(c.allocRuns, 0.5))
	}
	return nil
}

// benchmarkDecl is the repository benchmark's declaration, relative to the
// repository root that the A/B scripts run from. Its end_to_end list names
// the metrics of result lines and the direction in which each is better.
const benchmarkDecl = "BENCHMARK.json"

// resultLine is one run's last line of output from the repository
// benchmark (ccmbench): whether its outputs were correct, the operations it
// attempted and failed, and its metrics by name.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// resultLines reports whether data holds result lines: whether its first
// non-blank line is a JSON object.
func resultLines(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			return strings.HasPrefix(line, "{")
		}
	}
	return false
}

// abResults is runAB over result lines: data holds the base's runs and the
// change's, one JSON object a line, and declared is the benchmark
// declaration (BENCHMARK.json). It prints each side's run count and failed
// operations, then a row for each end-to-end metric the declaration lists,
// in its order: the change's wins, where a win is a lower value when the
// metric's better is "lower" and a higher one when it is "higher"; both
// medians; the change in the median; the base's interquartile range; and
// the sign-test p. A pair in which either run lacks the metric is skipped.
func abResults(data [2][]byte, declared string, out io.Writer) error {
	raw, err := os.ReadFile(declared)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct {
			Name, Better string
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", declared, err)
	}
	var sides [2][]resultLine
	for i, side := range []string{"base", "change"} {
		for n, line := range strings.Split(string(data[i]), "\n") {
			if line = strings.TrimSpace(line); line == "" {
				continue
			}
			var r resultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("ab: %s line %d: %w", side, n+1, err)
			}
			sides[i] = append(sides[i], r)
		}
		attempted, failed, wrong := 0, 0, 0
		for _, r := range sides[i] {
			attempted += r.Attempted
			failed += r.Failed
			if !r.Correct {
				wrong++
			}
		}
		fmt.Fprintf(out, "%-6s %d runs, %d not correct; %d of %d operations failed\n",
			side+":", len(sides[i]), wrong, failed, attempted)
	}
	fmt.Fprintf(out, "%-12s %-6s %7s %12s %12s %8s %12s %8s\n",
		"metric", "better", "wins", "base", "change", "delta", "base IQR", "p(sign)")
	for _, m := range decl.EndToEnd {
		var vals [2][]float64
		for i := range sides {
			for _, r := range sides[i] {
				if v, ok := r.Metrics[m.Name]; ok {
					vals[i] = append(vals[i], v.Value)
				}
			}
		}
		pairs, wins, ties := 0, 0, 0
		for i := range min(len(sides[0]), len(sides[1])) {
			b, okb := sides[0][i].Metrics[m.Name]
			c, okc := sides[1][i].Metrics[m.Name]
			if !okb || !okc {
				continue
			}
			pairs++
			switch {
			case c.Value == b.Value:
				ties++
			case (c.Value < b.Value) == (m.Better == "lower"):
				wins++
			}
		}
		bm, cm := quantile(vals[0], 0.5), quantile(vals[1], 0.5)
		fmt.Fprintf(out, "%-12s %-6s %3d/%-3d %12.4g %12.4g %+7.1f%% %12.4g %8.4f\n",
			m.Name, m.Better, wins, pairs, bm, cm, 100*delta(bm, cm),
			quantile(vals[0], 0.75)-quantile(vals[0], 0.25), signP(wins, pairs-ties))
	}
	return nil
}

// quantile returns the q-quantile of vs, interpolating linearly between
// order statistics; NaN when vs is empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(vs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 == len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// signP is the one-sided sign test: the chance of at least wins successes
// in n fair coin flips. 9 wins of 10 gives 11/1024 ≈ 0.011.
func signP(wins, n int) float64 {
	if n == 0 {
		return 1
	}
	p, c := 0.0, 1.0 // c is C(n, k), starting at k = 0
	for k := 0; k <= n; k++ {
		if k >= wins {
			p += c
		}
		c = c * float64(n-k) / float64(k+1)
	}
	return p / math.Exp2(float64(n))
}
