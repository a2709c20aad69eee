package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const goldenInput = `goos: linux
goarch: amd64
pkg: netags/internal/core
cpu: Intel(R) Xeon(R) CPU
BenchmarkSession/n=1000-8         	     100	     67264 ns/op	   12288 B/op	      20 allocs/op
BenchmarkSession/n=10000-8        	      10	    912345 ns/op
some unrelated chatter
BenchmarkDirect-8                 	 5000000	       231.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	netags/internal/core	4.2s
`

func TestRunGolden(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(goldenInput), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "Intel(R) Xeon(R) CPU" ||
		!slices.Equal(doc.Pkgs, []string{"netags/internal/core"}) || !slices.Equal(doc.GOMAXPROCS, []int{8}) {
		t.Errorf("preamble mis-parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3 (chatter and PASS/ok lines must be skipped)", len(doc.Benchmarks))
	}
	first := doc.Benchmarks[0]
	if first.Name != "BenchmarkSession/n=1000-8" || first.Iter != 100 ||
		first.NsPerOp != 67264 || first.BytesPerOp != 12288 || first.AllocsPerOp != 20 {
		t.Errorf("first benchmark mis-parsed: %+v", first)
	}
	if second := doc.Benchmarks[1]; second.NsPerOp != 912345 || second.BytesPerOp != 0 || second.AllocsPerOp != 0 {
		t.Errorf("metrics absent from the line must stay zero: %+v", second)
	}
	if third := doc.Benchmarks[2]; third.Name != "BenchmarkDirect-8" || third.NsPerOp != 231.5 {
		t.Errorf("fractional ns/op mis-parsed: %+v", third)
	}
	for i, b := range doc.Benchmarks {
		if !strings.Contains(goldenInput, b.Raw) || !strings.HasPrefix(b.Raw, "Benchmark") {
			t.Errorf("benchmark %d: raw line not preserved verbatim: %q", i, b.Raw)
		}
	}
}

// TestRunMultiPackageHeader: a multi-package `go test -bench` run prints a
// preamble per package. The header keeps every package, not just the last
// one, and records the GOMAXPROCS the -N name suffix carried (summaries
// strip it).
func TestRunMultiPackageHeader(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: netags/internal/core
cpu: Intel(R) Xeon(R) CPU
BenchmarkSessionN1e4-2	10	5000000 ns/op
PASS
ok  	netags/internal/core	2.0s
goos: linux
goarch: amd64
pkg: netags/internal/bitmap
cpu: Intel(R) Xeon(R) CPU
BenchmarkBitmapOr-2	1000	90 ns/op
PASS
ok  	netags/internal/bitmap	1.0s
pkg: netags/internal/core
BenchmarkSessionN1e4-2	10	5100000 ns/op
`
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"netags/internal/core", "netags/internal/bitmap"}; !slices.Equal(doc.Pkgs, want) {
		t.Errorf("pkgs = %q, want %q (every package, first-seen order, no repeats)", doc.Pkgs, want)
	}
	if !slices.Equal(doc.GOMAXPROCS, []int{2}) {
		t.Errorf("gomaxprocs = %v, want [2] from the -2 suffix", doc.GOMAXPROCS)
	}
	if !strings.Contains(out.String(), `"gomaxprocs": [`) || strings.Contains(out.String(), `"pkg":`) {
		t.Errorf("header keys wrong:\n%s", out.String())
	}

	// No suffix means GOMAXPROCS=1; a -cpu list records each value.
	mixed := "BenchmarkA\t10\t5 ns/op\nBenchmarkA-4\t10\t3 ns/op\n"
	out.Reset()
	if err := run(strings.NewReader(mixed), &out); err != nil {
		t.Fatal(err)
	}
	doc = document{}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.GOMAXPROCS, []int{1, 4}) {
		t.Errorf("gomaxprocs = %v, want [1 4]", doc.GOMAXPROCS)
	}
}

func TestRunMalformed(t *testing.T) {
	t.Run("empty input", func(t *testing.T) {
		var out strings.Builder
		err := run(strings.NewReader(""), &out)
		if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
			t.Fatalf("want the no-benchmark-lines error, got %v", err)
		}
	})
	t.Run("no benchmark lines", func(t *testing.T) {
		var out strings.Builder
		if err := run(strings.NewReader("PASS\nok pkg 1.0s\n"), &out); err == nil {
			t.Fatal("want an error when nothing parses")
		}
	})
	t.Run("iteration overflow", func(t *testing.T) {
		var out strings.Builder
		line := "BenchmarkX-8\t99999999999999999999999999\t5 ns/op\n"
		err := run(strings.NewReader(line), &out)
		if err == nil || !strings.Contains(err.Error(), "BenchmarkX") {
			t.Fatalf("want a parse error naming the line, got %v", err)
		}
	})
	t.Run("garbage metrics are skipped not fatal", func(t *testing.T) {
		var out strings.Builder
		if err := run(strings.NewReader("BenchmarkY-8\t10\tgibberish\n"), &out); err != nil {
			t.Fatalf("unparseable metric tail must not be fatal: %v", err)
		}
		var doc document
		if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].NsPerOp != 0 {
			t.Errorf("want one benchmark with zero metrics, got %+v", doc.Benchmarks)
		}
	})
}

func TestSummaryRollup(t *testing.T) {
	input := `BenchmarkHot-8	100	100 ns/op	64 B/op	2 allocs/op
BenchmarkHot-8	100	200 ns/op	64 B/op	2 allocs/op
BenchmarkHot-8	100	300 ns/op	64 B/op	2 allocs/op
BenchmarkCold	10	5000 ns/op
`
	var out strings.Builder
	if err := run(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Summary) != 2 {
		t.Fatalf("want 2 summaries, got %+v", doc.Summary)
	}
	hot := doc.Summary[0]
	if hot.Name != "BenchmarkHot" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", hot.Name)
	}
	if hot.Runs != 3 || hot.NsPerOp.Mean != 200 || hot.NsPerOp.Min != 100 || hot.NsPerOp.Max != 300 {
		t.Errorf("ns rollup wrong: %+v", hot)
	}
	if hot.AllocsPerOp.Mean != 2 || hot.BytesPerOp.Mean != 64 {
		t.Errorf("bytes/allocs rollup wrong: %+v", hot)
	}
	if cold := doc.Summary[1]; cold.Name != "BenchmarkCold" || cold.Runs != 1 || cold.NsPerOp.Mean != 5000 {
		t.Errorf("single-run summary wrong: %+v", cold)
	}
}

// writeBaseline stores a benchjson document for compare tests; using run()
// itself keeps the fixture in the exact shape `make bench` commits.
func writeBaseline(t *testing.T, benchOutput string) string {
	t.Helper()
	var out strings.Builder
	if err := run(strings.NewReader(benchOutput), &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const compareBaseline = `BenchmarkHot-8	100	100 ns/op	64 B/op	2 allocs/op
BenchmarkHot-8	100	120 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-8	100	50 ns/op	0 B/op	0 allocs/op
`

func TestCompareWithinTolerance(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	// Means: Hot 110 ns, 2 allocs; ZeroAlloc 50 ns, 0 allocs. A 20% ns
	// increase and a 0-alloc flicker both sit inside the default gates.
	current := `BenchmarkHot-4	100	132 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-4	100	55 ns/op	0 B/op	0 allocs/op
BenchmarkBrandNew-4	100	10 ns/op	0 B/op	0 allocs/op
`
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("within-tolerance run flagged as regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkBrandNew") || !strings.Contains(out.String(), "not in baseline") {
		t.Errorf("new benchmark not reported:\n%s", out.String())
	}
}

func TestCompareNsRegression(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	// Hot mean 110 -> 200 ns/op is +82%, far beyond the 30% default.
	current := `BenchmarkHot-4	100	200 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-4	100	50 ns/op	0 B/op	0 allocs/op
`
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("ns/op regression not caught:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "BenchmarkHot") {
		t.Errorf("failing benchmark not named:\n%s", out.String())
	}
}

func TestCompareAllocRegression(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	// Same speed, but the zero-alloc path now allocates: 0 -> 1 allocs/op
	// clears the absolute half-allocation slack and must fail.
	current := `BenchmarkHot-4	100	110 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-4	100	50 ns/op	16 B/op	1 allocs/op
`
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("alloc regression not caught:\n%s", out.String())
	}
}

func TestCompareToleranceFlag(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	current := `BenchmarkHot-4	100	200 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-4	100	50 ns/op	0 B/op	0 allocs/op
`
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base, "-tolerance", "1.0"},
		strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("-tolerance 1.0 must admit a +82%% change:\n%s", out.String())
	}
}

func TestCompareMissingBenchmarkWarns(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	current := "BenchmarkHot-4	100	110 ns/op	64 B/op	2 allocs/op\n"
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("a benchmark absent from the current run must warn, not fail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing from current run") {
		t.Errorf("missing benchmark not warned about:\n%s", out.String())
	}
}

func TestCompareErrors(t *testing.T) {
	t.Run("baseline required", func(t *testing.T) {
		var out strings.Builder
		if _, err := runCompare(nil, strings.NewReader("x"), &out); err == nil {
			t.Fatal("missing -baseline accepted")
		}
	})
	t.Run("baseline unreadable", func(t *testing.T) {
		var out strings.Builder
		_, err := runCompare([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json")},
			strings.NewReader("x"), &out)
		if err == nil {
			t.Fatal("unreadable baseline accepted")
		}
	})
	t.Run("baseline not benchjson", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.json")
		os.WriteFile(path, []byte(`{"benchmarks":[]}`), 0o644)
		var out strings.Builder
		if _, err := runCompare([]string{"-baseline", path}, strings.NewReader("x"), &out); err == nil {
			t.Fatal("empty baseline accepted")
		}
	})
	t.Run("no current benchmarks", func(t *testing.T) {
		base := writeBaseline(t, compareBaseline)
		var out strings.Builder
		if _, err := runCompare([]string{"-baseline", base}, strings.NewReader("PASS\n"), &out); err == nil {
			t.Fatal("empty current input accepted")
		}
	})
}

// TestCompareBaselineWithoutSummary: documents written before the rollup
// existed carry only raw benchmarks; compare must summarize them on load.
func TestCompareBaselineWithoutSummary(t *testing.T) {
	legacy := `{"benchmarks":[
	  {"name":"BenchmarkHot-8","iterations":100,"ns_per_op":100,"allocs_per_op":2,"raw":"x"},
	  {"name":"BenchmarkHot-8","iterations":100,"ns_per_op":120,"allocs_per_op":2,"raw":"x"}]}`
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	current := "BenchmarkHot-4	100	112 ns/op	16 B/op	2 allocs/op\n"
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", path}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("legacy baseline comparison failed:\n%s", out.String())
	}
}

// TestMannWhitney holds the rank test to U values and p-values worked out
// by hand. Without ties the p-value is exact: for samples of 3 and 3 the
// 20 rank arrangements give U = 0…9 with counts 1,1,2,3,3,3,3,2,1,1. With
// ties, x = {1,2,2} and y = {2,3,4} rank as 1 | 3,3,3 | 5 | 6 (midranks),
// so U = 1+3+3 − 6 = 1; the tie group of 3 cuts the variance to
// 9/12·(7 − 24/30) = 4.65, and z = (|1 − 4.5| − 0.5)/√4.65.
func TestMannWhitney(t *testing.T) {
	tiedZ := 3 / math.Sqrt(4.65)
	for _, tc := range []struct {
		name  string
		x, y  []float64
		wantU float64
		wantP float64
	}{
		{"separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 2 * 1.0 / 20},
		{"separated, swapped", []float64{4, 5, 6}, []float64{1, 2, 3}, 9, 2 * 1.0 / 20},
		{"interleaved", []float64{1, 3, 5}, []float64{2, 4, 6}, 3, 2 * 7.0 / 20},
		{"one overlap", []float64{1, 2, 4}, []float64{3, 5, 6}, 1, 2 * 2.0 / 20},
		{"centre", []float64{1, 4, 5}, []float64{2, 3, 6}, 4, 1},
		{"unequal sizes", []float64{1, 2, 3, 4, 5}, []float64{6, 7, 8}, 0, 2 * 1.0 / 56},
		{"one each", []float64{1}, []float64{2}, 0, 1},
		{"ties", []float64{1, 2, 2}, []float64{2, 3, 4}, 1, math.Erfc(tiedZ / math.Sqrt2)},
		{"all tied", []float64{5, 5}, []float64{5, 5, 5}, 3, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, p := mannWhitney(tc.x, tc.y)
			if u != tc.wantU || math.Abs(p-tc.wantP) > 1e-12 {
				t.Errorf("U, p = %v, %v; want %v, %v", u, p, tc.wantU, tc.wantP)
			}
		})
	}
	if u, p := mannWhitney(nil, []float64{1}); !math.IsNaN(u) || !math.IsNaN(p) {
		t.Errorf("empty sample: U, p = %v, %v; want NaN, NaN", u, p)
	}
}

// TestCompareReportsRankTest: each row carries the rank test's p-value,
// which does not change the verdict.
func TestCompareReportsRankTest(t *testing.T) {
	base := writeBaseline(t, compareBaseline)
	// Hot: {100, 120} against {200, 210} is the most extreme of the six
	// arrangements of two samples of two, p = 2/6, and far past the 30%
	// tolerance. ZeroAlloc: one run each, tied, p = 1.
	current := `BenchmarkHot-4	100	200 ns/op	64 B/op	2 allocs/op
BenchmarkHot-4	100	210 ns/op	64 B/op	2 allocs/op
BenchmarkZeroAlloc-4	100	50 ns/op	0 B/op	0 allocs/op
`
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("ns/op regression not caught:\n%s", out.String())
	}
	for _, want := range []string{"p=0.333", "p=1.000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCompareShiftVerdict: a row's shift resolves only when the rank test's
// p is below the level and the mean moved by more than the minimum effect.
func TestCompareShiftVerdict(t *testing.T) {
	runs := func(name string, ns ...int) string {
		var b strings.Builder
		for _, v := range ns {
			fmt.Fprintf(&b, "%s-4\t100\t%d ns/op\t0 B/op\t0 allocs/op\n", name, v)
		}
		return b.String()
	}
	// Five runs a side, fully separated: p = 2/252 ≈ 0.008.
	base := writeBaseline(t, runs("BenchmarkFast", 100, 101, 102, 103, 104)+
		runs("BenchmarkSlow", 100, 101, 102, 103, 104)+
		runs("BenchmarkSmall", 100, 101, 102, 103, 104)+
		runs("BenchmarkFew", 100, 101))
	current := runs("BenchmarkFast", 70, 71, 72, 73, 74) + // −30%, p ≈ 0.008
		runs("BenchmarkSlow", 120, 121, 122, 123, 124) + // +20%, p ≈ 0.008
		runs("BenchmarkSmall", 105, 106, 107, 108, 109) + // +5%, under the minimum effect
		runs("BenchmarkFew", 60, 61) // −40%, but p = 1/3
	var out strings.Builder
	ok, err := runCompare([]string{"-baseline", base}, strings.NewReader(current), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("run within the 30%% tolerance flagged:\n%s", out.String())
	}
	for name, want := range map[string]string{
		"BenchmarkFast": "faster", "BenchmarkSlow": "slower",
		"BenchmarkSmall": "unresolved", "BenchmarkFew": "unresolved",
	} {
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, name+" ") {
				row = line
			}
		}
		if !strings.Contains(row, " "+want+",") {
			t.Errorf("%s: want %q in row %q", name, want, row)
		}
	}
	if !strings.Contains(out.String(), "1 faster, 1 slower, 2 unresolved") {
		t.Errorf("tally missing:\n%s", out.String())
	}
}

// TestABPairs: the i-th run in the base file pairs with the i-th in the
// change's, ties count for neither side, and a benchmark missing from the
// change's runs is reported rather than paired.
func TestABPairs(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.txt")
	change := filepath.Join(dir, "change.txt")
	if err := os.WriteFile(base, []byte(`BenchmarkHot-2	10	100 ns/op	8 allocs/op
BenchmarkGone-2	10	5 ns/op
BenchmarkHot-2	10	120 ns/op	8 allocs/op
BenchmarkHot-2	10	110 ns/op	8 allocs/op
BenchmarkHot-2	10	90 ns/op	8 allocs/op
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(change, []byte(`BenchmarkHot-2	10	90 ns/op	8 allocs/op
BenchmarkHot-2	10	130 ns/op	8 allocs/op
BenchmarkHot-2	10	100 ns/op	8 allocs/op
BenchmarkHot-2	10	90 ns/op	8 allocs/op
`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runAB([]string{base, change}, &out); err != nil {
		t.Fatal(err)
	}
	// Pairs (100,90) win, (120,130) loss, (110,100) win, (90,90) tie: 2 of
	// 4, with the sign test over the 3 untied pairs: p = 4/8.
	hot := rowOf(t, out.String(), "BenchmarkHot")
	for _, want := range []string{"2/4", "105", "95", "0.5000", "8→8"} {
		if !strings.Contains(hot, want) {
			t.Errorf("row %q lacks %q", hot, want)
		}
	}
	if !strings.Contains(rowOf(t, out.String(), "BenchmarkGone"), "missing") {
		t.Errorf("a benchmark absent from the change's runs is not reported:\n%s", out.String())
	}
	if err := runAB([]string{base}, &out); err == nil {
		t.Error("one file accepted")
	}
}

// rowOf returns the line of out that starts with name.
func rowOf(t *testing.T, out, name string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("no %s row in:\n%s", name, out)
	return ""
}

func TestSignP(t *testing.T) {
	for _, c := range []struct {
		wins, n int
		want    float64
	}{{9, 10, 11.0 / 1024}, {10, 10, 1.0 / 1024}, {0, 10, 1}, {0, 0, 1}, {2, 3, 0.5}} {
		if got := signP(c.wins, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signP(%d, %d) = %v, want %v", c.wins, c.n, got, c.want)
		}
	}
}

// TestABResultLines: with ccmbench result lines, each end-to-end metric of
// the declaration is paired run by run in the direction its "better"
// names, a run lacking a metric leaves that pair out, failed operations are
// totalled per side, and a file of result lines cannot pair with go test
// output.
func TestABResultLines(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	decl := write("BENCHMARK.json", `{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
	]}`)
	line := func(correct bool, failed int, setup, ops float64) string {
		return fmt.Sprintf(`{"correct":%v,"attempted":10,"failed":%d,"metrics":{"setup_s":{"value":%g,"unit":"s"},"ops_per_s":{"value":%g,"unit":"1/s"}}}`+"\n",
			correct, failed, setup, ops)
	}
	base := write("base.jsonl", line(true, 0, 0.040, 50)+line(true, 0, 0.044, 60)+line(true, 0, 0.036, 55)+line(true, 0, 0.042, 58))
	change := write("change.jsonl", "\n"+line(true, 0, 0.030, 56)+line(false, 2, 0.046, 60)+
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.025,"unit":"s"}}}`+"\n"+
		line(true, 0, 0.028, 57))
	var data [2][]byte
	for i, path := range []string{base, change} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[i] = b
	}
	var out strings.Builder
	if err := abResults(data, decl, &out); err != nil {
		t.Fatal(err)
	}
	// setup_s (lower): pairs (.040,.030) win, (.044,.046) loss, (.036,.025)
	// win, (.042,.028) win: 3 of 4, p = 5/16. Base median .041, IQR
	// .0425−.039 = .0035; change median .029.
	for _, want := range []string{"lower", "3/4", "0.041", "0.029", "0.0035", "0.3125"} {
		if row := rowOf(t, out.String(), "setup_s"); !strings.Contains(row, want) {
			t.Errorf("row %q lacks %q", row, want)
		}
	}
	// ops_per_s (higher): (50,56) win, (60,60) tie, (55,–) skipped,
	// (58,57) loss: 1 of 3, the sign test over the 2 untied pairs.
	for _, want := range []string{"higher", "1/3", "56.5", "57", "0.7500"} {
		if row := rowOf(t, out.String(), "ops_per_s"); !strings.Contains(row, want) {
			t.Errorf("row %q lacks %q", row, want)
		}
	}
	for _, want := range []string{"4 runs, 0 not correct; 0 of 40", "4 runs, 1 not correct; 2 of 40"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	gotest := write("gotest.txt", "BenchmarkHot-2\t10\t100 ns/op\n")
	if err := runAB([]string{base, gotest}, &out); err == nil {
		t.Error("result lines paired with go test output")
	}
	if err := abResults(data, filepath.Join(dir, "none.json"), &out); err == nil {
		t.Error("a missing declaration accepted")
	}
}
