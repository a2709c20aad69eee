// Package serve is the simulation-as-a-service layer: it accepts sweep
// jobs over HTTP, executes them on a bounded worker pool built on
// experiment.RunSweep, and memoizes the rendered result JSON in a
// content-addressed LRU cache.
//
// The whole design leans on the determinism pinned since PR 1: a job spec
// fully determines its result bytes (seeds are position-derived, aggregation
// is an ordered reduce, the JSON encoder is canonical), so the SHA-256 of
// the spec's canonical serialization is a sound cache key — two semantically
// equal specs hash identically, and a cache hit is byte-exact, not merely
// statistically equivalent. An in-flight singleflight map extends the same
// idea to time: duplicate concurrent submissions collapse onto one
// execution and all of them read the same payload.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"netags/internal/experiment"
)

// Spec size caps: a service accepting jobs from the network must bound the
// computation a single POST can demand. These are generous for real studies
// (the paper's full evaluation is 9 points × 100 trials at n = 10,000) while
// keeping a hostile spec from parking the pool for hours.
const (
	// MaxPoints bounds the sweep axis length.
	MaxPoints = 4096
	// MaxTrials bounds trials per point.
	MaxTrials = 100000
	// MaxWorkItems bounds points × trials.
	MaxWorkItems = 1 << 20
	// MaxPopulation bounds the tag population per deployment.
	MaxPopulation = 1 << 20
)

// maxRange bounds every length in a spec — the inter-tag ranges and the
// deployment radius — in meters.
const maxRange = 1e6

// maxFrameWords bounds a CCM session's heard bitset, f·⌈n/64⌉ 64-bit words
// for frame f over n tags, at 512 MiB: every paper-frame spec up to
// MaxPopulation fits, while no frame, given or derived, can demand more
// memory than a worker has.
const maxFrameWords = 1 << 26

// JobSpec is the canonical description of one sweep job: experiment.Spec,
// whose kinds table normalizes, validates and runs it, with the service's
// hashing and request caps on top.
//
// The cache-key contract: Key() is the SHA-256 of the normalized spec's
// canonical JSON, and the normalized spec contains exactly the fields the
// computation reads. Fields the selected sweep ignores are cleared by
// Normalize, defaults are materialized, and the range axis is sorted (range
// results are order-independent: rows are sorted by r and per-point seeds
// derive from the point value, not its index). Consequently specs that
// differ only in JSON field order, explicit-zero versus omitted fields,
// ignored fields, or range-axis order hash identically. Execution knobs that
// cannot change the result — the per-job worker budget — are deliberately
// not part of the spec (determinism at any worker count is pinned by the
// experiment package's tests).
type JobSpec experiment.Spec

// Normalized returns the canonical form of the spec: defaults materialized,
// ignored fields cleared, protocol set and range axis canonically ordered.
// It does not validate; Key and Validate both start from this form.
func (s JobSpec) Normalized() JobSpec {
	return JobSpec(experiment.Spec(s).Normalized())
}

// Validate checks the service's request caps on the normalized spec, then
// the spec itself. The caps come first: they bound what the spec's own
// checks compute (the density kind sizes a TRP frame per population). It
// reports the first problem found.
func (s JobSpec) Validate() error {
	n := s.Normalized()
	if n.Trials > MaxTrials {
		return fmt.Errorf("serve: trials %d exceeds cap %d", n.Trials, MaxTrials)
	}
	points := experiment.Spec(n).PointCount()
	if points > MaxPoints {
		return fmt.Errorf("serve: %d sweep points exceed cap %d", points, MaxPoints)
	}
	if items := points * n.Trials; items > MaxWorkItems {
		return fmt.Errorf("serve: %d work items exceed cap %d", items, MaxWorkItems)
	}
	// Normalization zeroed every field the kind never reads, so the caps
	// apply to all of them at once.
	population := slices.Max(append([]int{n.N}, n.NValues...))
	if population > MaxPopulation {
		return fmt.Errorf("serve: population %d exceeds cap %d", population, MaxPopulation)
	}
	if l := slices.Max(append([]float64{n.Radius, n.R}, n.RValues...)); l > maxRange {
		return fmt.Errorf("serve: length %g m exceeds cap %g", l, maxRange)
	}
	// The caps above bound what sizing the derived frames computes.
	for _, ss := range experiment.Spec(n).Sessions() {
		if ss.N > 0 && ss.Frame > maxFrameWords/((ss.N+63)/64) {
			return fmt.Errorf("serve: frame %d over %d tags exceeds cap %d bitset words", ss.Frame, ss.N, maxFrameWords)
		}
	}
	return experiment.Spec(n).Validate()
}

// PointCount returns the normalized spec's sweep-axis length — the number
// of grid points, and the denominator of the per-point checkpoint.
func (s JobSpec) PointCount() int {
	return experiment.Spec(s.Normalized()).PointCount()
}

// PointLabel renders point i's coordinate on the normalized axis ("r=6",
// "n=5000", "loss=0.2") — the human-readable half of a checkpoint entry.
func (s JobSpec) PointLabel(i int) string {
	return experiment.Spec(s.Normalized()).PointLabel(i)
}

// CanonicalJSON renders the normalized spec in its stable serialization:
// encoding/json over a fixed struct (declaration-order fields, omitempty on
// everything optional), which is deterministic byte-for-byte.
func (s JobSpec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.Normalized())
}

// Key returns the content address of the spec: the hex SHA-256 of its
// canonical JSON. It does not validate — call Validate before trusting a
// key to be executable.
func (s JobSpec) Key() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
