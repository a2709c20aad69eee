package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runAB implements the `ab` subcommand: two files of `go test -bench`
// output, the base revision's and the change's, written by interleaved
// pairs of runs (scripts/bench_ab.sh). The i-th run of a benchmark in one
// file pairs with its i-th run in the other. Per benchmark it prints the
// change's wins (pairs where its ns/op is lower; ties count for neither),
// both sides' median ns/op and allocs/op, the base's interquartile range,
// and the one-sided sign-test p of that many wins arising by chance.
// Report-only: it never fails on the numbers.
func runAB(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson ab", flag.ContinueOnError)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("ab: want two files, base then change; got %d", fs.NArg())
	}
	var sides [2][]summary
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		doc, err := parse(f)
		f.Close()
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
