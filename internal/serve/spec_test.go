package serve

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"netags/internal/experiment"
)

func mustKey(t *testing.T, s JobSpec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSpecKeyDefaultsVsExplicit: the cache-key contract — a spec written
// with explicit defaults hashes identically to one relying on them.
func TestSpecKeyDefaultsVsExplicit(t *testing.T) {
	minimal := JobSpec{N: 300, Trials: 2, RValues: []float64{6}}
	explicit := JobSpec{
		Sweep:     experiment.SweepRange,
		N:         300,
		Radius:    30,
		Trials:    2,
		Seed:      0,
		RValues:   []float64{6},
		Protocols: []string{"SICP", "GMLE-CCM", "TRP-CCM"},
	}
	if mustKey(t, minimal) != mustKey(t, explicit) {
		t.Errorf("explicit defaults changed the key:\n%s\n%s",
			mustJSON(t, minimal.Normalized()), mustJSON(t, explicit.Normalized()))
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSpecKeyFieldOrder: JSON field order cannot matter — both orderings
// decode to the same spec, hence the same key.
func TestSpecKeyFieldOrder(t *testing.T) {
	a := `{"sweep":"range","n":300,"trials":2,"r_values":[6,2]}`
	b := `{"r_values":[6,2],"trials":2,"n":300,"sweep":"range"}`
	var sa, sb JobSpec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	if mustKey(t, sa) != mustKey(t, sb) {
		t.Error("field order changed the key")
	}
}

// TestSpecKeyRangeAxisOrder: range rows are sorted and per-point seeds are
// position-derived, so axis order is canonicalized away.
func TestSpecKeyRangeAxisOrder(t *testing.T) {
	a := JobSpec{N: 300, Trials: 2, RValues: []float64{6, 2, 10}}
	b := JobSpec{N: 300, Trials: 2, RValues: []float64{10, 6, 2}}
	if mustKey(t, a) != mustKey(t, b) {
		t.Error("range axis order changed the key")
	}
	// Loss axis order, by contrast, is preserved: rows render in axis order.
	la := JobSpec{Sweep: experiment.SweepLoss, N: 300, Trials: 2, R: 6, LossValues: []float64{0, 0.2}}
	lb := JobSpec{Sweep: experiment.SweepLoss, N: 300, Trials: 2, R: 6, LossValues: []float64{0.2, 0}}
	if mustKey(t, la) == mustKey(t, lb) {
		t.Error("loss axis order must be significant (rows render in axis order)")
	}
}

// TestSpecKeyIgnoredFields: fields the selected sweep never reads are
// cleared by normalization and cannot perturb the key.
func TestSpecKeyIgnoredFields(t *testing.T) {
	plain := JobSpec{Sweep: experiment.SweepDensity, Trials: 2, R: 6, NValues: []int{100, 200}}
	noisy := plain
	noisy.N = 5000                     // density ignores N
	noisy.GMLEFrame = 77               // range-only
	noisy.LossValues = []float64{0.5}  // loss-only
	noisy.FrameSize = 12               // loss-only
	noisy.Protocols = []string{"SICP"} // range-only
	if mustKey(t, plain) != mustKey(t, noisy) {
		t.Error("ignored fields perturbed the density key")
	}
}

// TestSpecKeyProtocolSet: protocol order and duplicates canonicalize away;
// a genuinely different set yields a different key.
func TestSpecKeyProtocolSet(t *testing.T) {
	a := JobSpec{N: 300, Trials: 2, RValues: []float64{6}, Protocols: []string{"TRP-CCM", "SICP", "SICP"}}
	b := JobSpec{N: 300, Trials: 2, RValues: []float64{6}, Protocols: []string{"SICP", "TRP-CCM"}}
	c := JobSpec{N: 300, Trials: 2, RValues: []float64{6}, Protocols: []string{"SICP"}}
	if mustKey(t, a) != mustKey(t, b) {
		t.Error("protocol order/duplicates changed the key")
	}
	if mustKey(t, a) == mustKey(t, c) {
		t.Error("different protocol sets must differ")
	}
}

// TestSpecKeyDistinguishes: every semantic field must reach the hash.
func TestSpecKeyDistinguishes(t *testing.T) {
	base := JobSpec{N: 300, Trials: 2, RValues: []float64{6}}
	variants := []func(*JobSpec){
		func(s *JobSpec) { s.N = 301 },
		func(s *JobSpec) { s.Trials = 3 },
		func(s *JobSpec) { s.Seed = 1 },
		func(s *JobSpec) { s.Radius = 25 },
		func(s *JobSpec) { s.RValues = []float64{7} },
		func(s *JobSpec) { s.GMLEFrame = 64 },
		func(s *JobSpec) { s.TRPFrame = 64 },
		func(s *JobSpec) { s.ContentionWindow = 8 },
		func(s *JobSpec) { s.DisableIndicatorVector = true },
	}
	baseKey := mustKey(t, base)
	for i, mutate := range variants {
		v := base
		v.RValues = append([]float64(nil), base.RValues...)
		mutate(&v)
		if mustKey(t, v) == baseKey {
			t.Errorf("variant %d did not change the key", i)
		}
	}
}

// TestSpecKeyRoundTrip: canonical JSON decodes back to a spec with the
// same key (the fuzz target's core property, pinned here on a fixture).
func TestSpecKeyRoundTrip(t *testing.T) {
	for _, s := range []JobSpec{
		{N: 300, Trials: 2, RValues: []float64{2, 6}},
		{Sweep: experiment.SweepDensity, Trials: 2, R: 6, NValues: []int{100, 300}},
		{Sweep: experiment.SweepLoss, N: 200, Trials: 1, R: 6, LossValues: []float64{0, 0.3}, Seed: 42},
	} {
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var rt JobSpec
		if err := json.Unmarshal(canon, &rt); err != nil {
			t.Fatalf("canonical JSON does not round-trip: %v\n%s", err, canon)
		}
		if mustKey(t, s) != mustKey(t, rt) {
			t.Errorf("round trip changed the key for %s", canon)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	valid := []JobSpec{
		{N: 300, Trials: 2, RValues: []float64{6}},
		{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{50}},
		{Sweep: experiment.SweepLoss, N: 100, Trials: 1, R: 6, LossValues: []float64{0.5}},
		{N: 300, Trials: 2, RValues: []float64{6}, Protocols: []string{"CICP"}},
		// The frame cap admits the paper's frames at the population cap.
		{N: MaxPopulation, Trials: 1, RValues: []float64{6}},
		{N: 300, Trials: 1, RValues: []float64{6}, TRPFrame: 1 << 20},
		// Frames derived for the paper's population fit the cap too.
		{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{10000}},
		{Sweep: experiment.SweepLoss, N: 10000, Trials: 1, R: 6, LossValues: []float64{0}},
	}
	for i, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	invalid := []struct {
		name string
		s    JobSpec
	}{
		{"no axis", JobSpec{N: 300, Trials: 2}},
		{"zero trials", JobSpec{N: 300, RValues: []float64{6}}},
		{"negative radius", JobSpec{N: 300, Trials: 2, Radius: -1, RValues: []float64{6}}},
		{"zero population", JobSpec{Trials: 2, RValues: []float64{6}}},
		{"unknown sweep", JobSpec{Sweep: "wat", N: 300, Trials: 2}},
		{"unknown protocol", JobSpec{N: 300, Trials: 2, RValues: []float64{6}, Protocols: []string{"ALOHA"}}},
		{"negative r", JobSpec{N: 300, Trials: 2, RValues: []float64{-6}}},
		{"NaN r", JobSpec{N: 300, Trials: 2, RValues: []float64{nan()}}},
		{"loss of 1", JobSpec{Sweep: experiment.SweepLoss, N: 100, Trials: 1, R: 6, LossValues: []float64{1}}},
		{"density zero pop", JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{0}}},
		{"density pop too small for a TRP frame", JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{1}}},
		{"too many trials", JobSpec{N: 300, Trials: MaxTrials + 1, RValues: []float64{6}}},
		{"work item cap", JobSpec{N: 300, Trials: MaxTrials, RValues: manyPoints(64)}},
		{"population cap", JobSpec{N: MaxPopulation + 1, Trials: 1, RValues: []float64{6}}},
		{"density population cap", JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{MaxPopulation + 1}}},
		{"range cap", JobSpec{N: 300, Trials: 1, RValues: []float64{2e6}}},
		{"loss range cap", JobSpec{Sweep: experiment.SweepLoss, N: 100, Trials: 1, R: 2e6, LossValues: []float64{0}}},
		{"radius cap", JobSpec{N: 300, Trials: 1, Radius: 2e6, RValues: []float64{6}}},
		{"NaN radius", JobSpec{N: 300, Trials: 1, Radius: nan(), RValues: []float64{6}}},
		{"NaN loss", JobSpec{Sweep: experiment.SweepLoss, N: 100, Trials: 1, R: 6, LossValues: []float64{nan()}}},
		{"gmle frame cap", JobSpec{N: 300, Trials: 1, RValues: []float64{6}, GMLEFrame: 1e12}},
		{"trp frame cap", JobSpec{N: 300, Trials: 1, RValues: []float64{6}, TRPFrame: 1e12}},
		{"trp frame cap at the population cap", JobSpec{N: MaxPopulation, Trials: 1, RValues: []float64{6}, TRPFrame: 5000}},
		{"loss frame cap", JobSpec{Sweep: experiment.SweepLoss, N: 100, Trials: 1, R: 6, LossValues: []float64{0}, FrameSize: 1e12}},
		// Derived frames: a TRP frame sized for 2^20 tags is 139,717 slots,
		// a 17 GiB heard bitset.
		{"density derived frame cap", JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{1 << 20}}},
		{"loss derived frame cap", JobSpec{Sweep: experiment.SweepLoss, N: 1 << 20, Trials: 1, R: 6, LossValues: []float64{0}}},
		// The caps bound what validation itself computes: past them, the
		// density kind's TRP frame sizing would run for hours.
		{"density population far past the cap", JobSpec{Sweep: experiment.SweepDensity, Trials: 1, R: 6, NValues: []int{1e15}}},
	}
	for _, tc := range invalid {
		done := make(chan error, 1)
		go func() { done <- tc.s.Validate() }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Validate still running after 10 s", tc.name)
		}
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func manyPoints(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestSpecKeyIsHex: keys are lowercase hex SHA-256 (64 chars) — stable
// enough to live in URLs.
func TestSpecKeyIsHex(t *testing.T) {
	k := mustKey(t, JobSpec{N: 300, Trials: 2, RValues: []float64{6}})
	if len(k) != 64 || strings.ToLower(k) != k {
		t.Errorf("key %q is not lowercase hex sha256", k)
	}
}

// TestRunSpecTinyRange: a valid spec whose inter-tag range is tiny next to
// the deployment used to size the topology grid at ~10^17 cells and panic
// the worker running it. It now runs to a payload.
func TestRunSpecTinyRange(t *testing.T) {
	spec := JobSpec{N: 300, Trials: 1, RValues: []float64{1e-7}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := runSpec(context.Background(), spec, 1, nil, nil); err != nil {
		t.Fatal(err)
	}
}
