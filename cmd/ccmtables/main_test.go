package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("-r", "2, 4,6")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if _, err := parseFloats("-loss", "2,x"); err == nil || !strings.Contains(err.Error(), "-loss") {
		t.Fatalf("bad float: err = %v, want one naming -loss", err)
	}
}

func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run(context.Background(), []string{
		"-n", "400", "-trials", "1", "-r", "6", "-all", "-quiet",
		"-csv", csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "r,protocol,metric,") {
		t.Fatalf("unexpected CSV: %s", data[:60])
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-r", "nope"}); err == nil {
		t.Fatal("bad r list accepted")
	}
	if err := run(context.Background(), []string{"-n", "100", "-trials", "1", "-r", "6", "-protocols", "bogus", "-quiet"}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestRunLossMode(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "300", "-trials", "1", "-r", "6", "-loss", "0,0.5", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // in the error
	}{
		{[]string{"-loss", "bogus"}, "-loss"},
		{[]string{"-loss", "0,0.5", "-r", "4,6"}, "-r lists 2"},
		{[]string{"-loss", "0", "-density", "300"}, "-density and -loss"},
		{[]string{"-loss", "0", "-csv", filepath.Join(t.TempDir(), "l.csv")}, "-csv"},
		{[]string{"-loss", "0", "-figure", "3"}, "-figure"},
	} {
		args := append([]string{"-n", "300", "-trials", "1", "-r", "6", "-quiet"}, tc.args...)
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

func TestRunDensityMode(t *testing.T) {
	if err := run(context.Background(), []string{"-trials", "1", "-r", "6", "-density", "300,600", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // in the error
	}{
		{[]string{"-density", "x"}, "-density"},
		{[]string{"-density", "300.7"}, "-density"},
		{[]string{"-density", "300,600", "-r", "4,6"}, "-r lists 2"},
		{[]string{"-density", "300", "-csv", filepath.Join(t.TempDir(), "d.csv")}, "-csv"},
		{[]string{"-density", "300", "-table", "1"}, "-table"},
	} {
		args := append([]string{"-trials", "1", "-r", "6", "-quiet"}, tc.args...)
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunObservabilityFlags drives one small sweep with every observability
// sink attached and checks the artifacts parse.
func TestRunObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3",
		"-progress", "off", "-trace-out", trace, "-metrics", "json", "-cpuprofile", cpu,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace line %d is not valid JSON: %s", i+1, line)
		}
	}
	if b, err := os.ReadFile(cpu); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("cpu profile not a gzip stream (err=%v)", err)
	}
}

func TestRunProgressModes(t *testing.T) {
	for _, mode := range []string{"text", "json", "off"} {
		err := run(context.Background(), []string{
			"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-progress", mode})
		if err != nil {
			t.Errorf("run(-progress %s): %v", mode, err)
		}
	}
	if err := run(context.Background(), []string{"-n", "300", "-trials", "1", "-r", "6", "-progress", "bogus"}); err == nil {
		t.Fatal("bad progress mode accepted")
	}
}

// TestRunHTTPIntrospection: -http on an ephemeral port starts, serves the
// sweep, and shuts down cleanly; a bad address is a startup error.
func TestRunHTTPIntrospection(t *testing.T) {
	err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-quiet",
		"-http", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-quiet",
		"-http", "not-an-address"}); err == nil {
		t.Fatal("bad -http address accepted")
	}
}

// TestRenderPinned pins ccmtables' stdout — the rendered figures and tables
// of each sweep kind — for a tiny configuration, byte for byte, against
// testdata/<kind>.golden. Worker count 2 exercises the parallel path; the
// numbers are worker-count independent.
func TestRenderPinned(t *testing.T) {
	for _, tc := range []struct {
		kind string
		args []string
	}{
		{"range", []string{"-n", "150", "-trials", "2", "-r", "6,3", "-all", "-protocols", "TRP-CCM,SICP,GMLE-CCM,CICP"}},
		{"density", []string{"-trials", "2", "-r", "6", "-density", "120,60"}},
		{"loss", []string{"-n", "150", "-trials", "2", "-r", "6", "-loss", "0,0.4"}},
	} {
		out := captureStdout(t, func() error {
			return run(context.Background(), append(tc.args, "-quiet", "-workers", "2"))
		})
		want, err := os.ReadFile(filepath.Join("testdata", tc.kind+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s stdout differs from testdata/%s.golden:\n%s", tc.kind, tc.kind, out)
		}
	}
}

// captureStdout runs f with os.Stdout redirected into a file and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	return string(data)
}
