// The sweep-kind table. Every sweep this package runs — the paper's range
// sweep and the population and loss extensions — is one shape: deploy,
// build, run the protocols per trial, then reduce each point's trials to a
// row. A kind supplies only what differs, once, as one entry of kinds; the
// generic runner, the jobs service and the CLIs drive every kind through
// it. Adding a kind is one entry plus its trial function (see DESIGN.md,
// "Adding a sweep kind").
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/stats"
	"netags/internal/trp"
)

// The sweep kinds, by Spec.Sweep name.
const (
	SweepRange   = "range"
	SweepDensity = "density"
	SweepLoss    = "loss"
)

// Spec describes one sweep of any kind in a single flat, JSON-friendly
// shape; the selected Sweep decides which axis and knobs are read.
// Normalized clears the rest, so a normalized Spec holds exactly the
// fields its computation reads.
type Spec struct {
	// Sweep selects the sweep kind: "range" (default), "density", "loss".
	Sweep string `json:"sweep,omitempty"`
	// N is the tag population (range and loss sweeps; the density sweep
	// ignores it in favor of NValues).
	N int `json:"n,omitempty"`
	// Radius is the deployment disk radius in meters (0 = the paper's 30).
	Radius float64 `json:"radius,omitempty"`
	// Trials is the number of independent deployments per sweep point.
	Trials int `json:"trials,omitempty"`
	// Seed is the sweep seed every trial's seeds derive from.
	Seed uint64 `json:"seed,omitempty"`

	// RValues is the range sweep's axis of inter-tag ranges.
	RValues []float64 `json:"r_values,omitempty"`
	// Protocols selects what the range sweep runs (empty = the paper's
	// SICP, GMLE-CCM, TRP-CCM). Order and duplicates are canonicalized away.
	Protocols []string `json:"protocols,omitempty"`
	// GMLEFrame / TRPFrame are the range sweep's application frame sizes
	// (0 = the paper's defaults). GMLE's sampling probability is set to
	// 1.59·f/N as in §VI-B.
	GMLEFrame int `json:"gmle_frame,omitempty"`
	TRPFrame  int `json:"trp_frame,omitempty"`
	// ContentionWindow forwards to SICP/CICP (0 = their default).
	ContentionWindow int `json:"contention_window,omitempty"`
	// DisableIndicatorVector runs the CCM protocols without §III-D
	// silencing (the flooding ablation).
	DisableIndicatorVector bool `json:"disable_indicator_vector,omitempty"`

	// NValues is the density sweep's axis of populations.
	NValues []int `json:"n_values,omitempty"`
	// R is the inter-tag range of the density and loss sweeps.
	R float64 `json:"r,omitempty"`

	// LossValues is the loss sweep's axis of loss probabilities.
	LossValues []float64 `json:"loss_values,omitempty"`
	// FrameSize is the loss sweep's TRP frame (0 = derive per deployment).
	FrameSize int `json:"frame_size,omitempty"`
}

// Exec carries how a sweep executes. None of it can change the sweep's
// numbers.
type Exec struct {
	// Workers bounds the goroutines executing work items (see
	// BaseConfig.Workers).
	Workers int
	// Tracer, if non-nil, receives every protocol run's event stream (see
	// BaseConfig.Tracer).
	Tracer obs.Tracer
	// Observe, if non-nil, receives one Progress event per completed work
	// item, serialized but in completion order.
	Observe func(Progress)
	// Skip marks points whose work items must not run — the resume path.
	// Skipped points reduce over no trials and never reach PointDone.
	Skip []bool
	// PointDone, if non-nil, fires once per computed point, as soon as its
	// last trial lands. Calls are serialized.
	PointDone func(PointInfo)
}

// PointInfo is one computed sweep point. Because seeds are
// position-derived and a row reads only its own point's trials, Row is
// bit-identical to the same point's row in an uninterrupted run — the
// contract checkpoint/resume builds on.
type PointInfo struct {
	// Index is the point's position on the sweep axis.
	Index int
	// Elapsed is the summed wall time of the point's work items.
	Elapsed time.Duration
	// Row is the kind's JSON encoding of the point's aggregated row.
	Row json.RawMessage
}

// Report is a finished sweep in printable form: String renders every
// table of the kind, each followed by a blank line. The range kind's
// *Results also renders a selection (Render) and a long form (CSV).
type Report interface{ String() string }

// trialResult is what the runner needs from any kind's per-trial result:
// the tier count of the trial's deployment, for Progress.
type trialResult interface{ tierCount() int }

// kind describes one sweep kind: P is a point on its axis, T one trial's
// measurements, R one point's reduced row.
type kind[P any, T trialResult, R any] struct {
	name string
	// normalize returns the fields the kind reads, canonically ordered and
	// with defaults materialized; everything else stays zero. The shared
	// fields (Sweep, Radius, Trials, Seed) are set by Spec.Normalized.
	normalize func(Spec) Spec
	// validate checks the kind's own fields; Spec.Validate has checked the
	// shared ones and that the axis is not empty.
	validate func(Spec) error
	// axis lists the points; key folds one into the seed derivation.
	axis func(Spec) []P
	key  func(P) uint64
	// at places a point in a Progress event: its coordinates and the
	// protocols a work item runs.
	at func(Spec, P) Progress
	// label renders a Progress event's point ("r=6", "n=5000", "loss=0.2").
	label func(Progress) string
	// trial returns the function that runs one work item.
	trial func(Spec, obs.Tracer) func(ctx context.Context, point P, trial int, seeds TrialSeeds) (T, error)
	// reduce folds one point's trials, in trial order, into its row.
	reduce func(Spec, P, []T) R
	// encode returns a row's JSON view; report wraps the rows for print.
	encode func(R) any
	report func(Spec, []R) Report
	// sessions lists the CCM sessions a trial runs, by size.
	sessions func(Spec) []Session
}

// Session is the size of a CCM session a sweep runs: its population and
// frame. Its heard bitset holds Frame·⌈N/64⌉ 64-bit words.
type Session struct{ N, Frame int }

// kinds is the table. Its first entry is the default kind.
var kinds = []sweepKind{
	newKind(&kind[float64, rangeTrial, Row]{
		name: SweepRange,
		normalize: func(s Spec) Spec {
			// Rows are sorted by r and seeds derive from the point value, so
			// axis order cannot change the result: sort it.
			r := append([]float64(nil), s.RValues...)
			sort.Float64s(r)
			n := Spec{N: s.N, RValues: r, GMLEFrame: s.GMLEFrame, TRPFrame: s.TRPFrame,
				ContentionWindow: s.ContentionWindow, DisableIndicatorVector: s.DisableIndicatorVector}
			for _, p := range rangeProtocols(s) {
				n.Protocols = append(n.Protocols, string(p))
			}
			n.Protocols = canonicalProtocols(n.Protocols)
			if n.GMLEFrame == 0 {
				n.GMLEFrame = gmle.PaperFrameSize
			}
			if n.TRPFrame == 0 {
				n.TRPFrame = trp.PaperFrameSize
			}
			return n
		},
		validate: validateRange,
		axis:     func(s Spec) []float64 { return s.RValues },
		key:      FloatKey,
		at: func(s Spec, r float64) Progress {
			return Progress{R: r, Protocols: rangeProtocols(s)}
		},
		label:  func(p Progress) string { return fmt.Sprintf("r=%g", p.R) },
		trial:  rangeTrialFunc,
		reduce: buildRangeRow,
		encode: Row.jsonView,
		report: func(s Spec, rows []Row) Report {
			sort.Slice(rows, func(i, j int) bool { return rows[i].R < rows[j].R })
			return &Results{Config: s.rangeConfig(), Rows: rows}
		},
		sessions: func(s Spec) []Session { return []Session{{s.N, s.GMLEFrame}, {s.N, s.TRPFrame}} },
	}),
	newKind(&kind[int, densityTrial, DensityRow]{
		name: SweepDensity,
		normalize: func(s Spec) Spec {
			return Spec{NValues: append([]int(nil), s.NValues...), R: s.R}
		},
		validate: validateDensity,
		axis:     func(s Spec) []int { return s.NValues },
		key:      IntKey,
		at: func(_ Spec, n int) Progress {
			return Progress{N: n, Protocols: []Protocol{GMLECCM, TRPCCM, SICP}}
		},
		label:    func(p Progress) string { return fmt.Sprintf("n=%d", p.N) },
		trial:    densityTrialFunc,
		reduce:   buildDensityRow,
		encode:   DensityRow.jsonView,
		report:   func(s Spec, rows []DensityRow) Report { return &DensityResults{Spec: s, Rows: rows} },
		sessions: densitySessions,
	}),
	newKind(&kind[float64, lossTrial, LossRow]{
		name: SweepLoss,
		normalize: func(s Spec) Spec {
			return Spec{N: s.N, R: s.R, LossValues: append([]float64(nil), s.LossValues...), FrameSize: s.FrameSize}
		},
		validate: validateLoss,
		axis:     func(s Spec) []float64 { return s.LossValues },
		key:      FloatKey,
		at: func(s Spec, loss float64) Progress {
			return Progress{R: s.R, Loss: loss, Protocols: []Protocol{TRPCCM}}
		},
		label:    func(p Progress) string { return fmt.Sprintf("loss=%g", p.Loss) },
		trial:    lossTrialFunc,
		reduce:   buildLossRow,
		encode:   LossRow.jsonView,
		report:   func(s Spec, rows []LossRow) Report { return &LossResults{Spec: s, Rows: rows} },
		sessions: lossSessions,
	}),
}

// sweepKind is a kind entry with its point, trial and row types erased:
// what Spec's methods and Run read.
type sweepKind struct {
	name       string
	normalize  func(Spec) Spec
	validate   func(Spec) error
	points     func(Spec) int
	pointLabel func(s Spec, i int) string
	label      func(Progress) string
	run        func(context.Context, Spec, Exec) (Report, error)
	sessions   func(Spec) []Session
}

// newKind erases k's types into its table entry.
func newKind[P any, T trialResult, R any](k *kind[P, T, R]) sweepKind {
	return sweepKind{
		name:       k.name,
		normalize:  k.normalize,
		validate:   k.validate,
		points:     func(s Spec) int { return len(k.axis(s)) },
		pointLabel: k.pointLabel,
		label:      k.label,
		run:        k.run,
		sessions:   k.sessions,
	}
}

func (k *kind[P, T, R]) pointLabel(s Spec, i int) string {
	axis := k.axis(s)
	if i < 0 || i >= len(axis) {
		return fmt.Sprintf("point=%d", i)
	}
	return k.label(k.at(s, axis[i]))
}

// run executes a validated spec over RunSweep and reduces it to rows.
func (k *kind[P, T, R]) run(ctx context.Context, s Spec, x Exec) (Report, error) {
	points := k.axis(s)
	sweep := Sweep[P, T]{
		Base: BaseConfig{N: s.N, Radius: s.Radius, Trials: s.Trials, Seed: s.Seed,
			Workers: x.Workers, Tracer: x.Tracer},
		Points: points,
		Key:    k.key,
		Skip:   x.Skip,
		Run:    k.trial(s, x.Tracer),
		Event: func(p P, trial int, t T, elapsed time.Duration) Progress {
			ev := k.at(s, p)
			ev.Sweep, ev.Trial, ev.Trials, ev.Tiers, ev.Elapsed = k.name, trial, s.Trials, t.tierCount(), elapsed
			return ev
		},
	}
	if x.PointDone != nil {
		sweep.PointDone = func(sp SweepPoint[P, T]) {
			row, err := json.Marshal(k.encode(k.reduce(s, sp.Point, sp.Trials)))
			if err != nil {
				// A row that cannot marshal is a programming error; surface
				// it loudly rather than checkpointing a hole.
				panic(fmt.Sprintf("experiment: encode %s point %d: %v", k.name, sp.Index, err))
			}
			x.PointDone(PointInfo{Index: sp.Index, Elapsed: sp.Elapsed, Row: row})
		}
	}
	grid, err := RunSweep(ctx, sweep, x.Observe)
	if err != nil {
		return nil, err
	}
	rows := make([]R, len(points))
	for i, p := range points {
		if x.Skip != nil && x.Skip[i] {
			grid[i] = nil
		}
		rows[i] = k.reduce(s, p, grid[i])
	}
	return k.report(s, rows), nil
}

// lookupKind returns the table entry named name.
func lookupKind(name string) (sweepKind, bool) {
	for _, k := range kinds {
		if k.name == name {
			return k, true
		}
	}
	return sweepKind{}, false
}

// Normalized returns the canonical form of the spec: the default kind and
// radius materialized, then the kind's own fields canonicalized and every
// field it never reads cleared. It does not validate, and leaves a spec of
// unknown kind as it is.
func (s Spec) Normalized() Spec {
	if s.Sweep == "" {
		s.Sweep = kinds[0].name
	}
	if s.Radius == 0 {
		s.Radius = 30 // the paper's deployment disk
	}
	k, ok := lookupKind(s.Sweep)
	if !ok {
		return s
	}
	n := k.normalize(s)
	n.Sweep, n.Radius, n.Trials, n.Seed = s.Sweep, s.Radius, s.Trials, s.Seed
	return n
}

// Validate checks the spec as given — it does not normalize, so a spec
// relying on defaults must be normalized first. It reports the first
// problem found.
func (s Spec) Validate() error {
	k, ok := lookupKind(s.Sweep)
	if !ok {
		return fmt.Errorf("experiment: unknown sweep kind %q", s.Sweep)
	}
	if err := (BaseConfig{Radius: s.Radius, Trials: s.Trials}).validate(); err != nil {
		return err
	}
	if k.points(s) == 0 {
		return fmt.Errorf("experiment: %s sweep has no points", s.Sweep)
	}
	return k.validate(s)
}

// PointCount returns the spec's sweep-axis length (0 for an unknown kind).
func (s Spec) PointCount() int {
	if k, ok := lookupKind(s.Sweep); ok {
		return k.points(s)
	}
	return 0
}

// PointLabel renders point i's coordinate ("r=6", "n=5000", "loss=0.2"),
// or "point=i" when i is off the axis.
func (s Spec) PointLabel(i int) string {
	if k, ok := lookupKind(s.Sweep); ok {
		return k.pointLabel(s, i)
	}
	return fmt.Sprintf("point=%d", i)
}

// Sessions lists the sizes of the CCM sessions a trial of the spec runs,
// frames it derives included (nil for an unknown kind). The jobs service
// caps their heard bitsets with it.
func (s Spec) Sessions() []Session {
	if k, ok := lookupKind(s.Sweep); ok {
		return k.sessions(s)
	}
	return nil
}

// RowsField names the result-payload member the spec's rows fill
// ("range_rows", "density_rows", "loss_rows"); "" for an unknown kind.
func (s Spec) RowsField() string {
	if k, ok := lookupKind(s.Sweep); ok {
		return k.name + "_rows"
	}
	return ""
}

// Run validates the spec and executes it, fanning its (point, trial) grid
// out over x.Workers goroutines. Results are bit-identical for every worker
// count.
func Run(ctx context.Context, s Spec, x Exec) (Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	k, _ := lookupKind(s.Sweep)
	return k.run(ctx, s, x)
}

// pointLabel renders a Progress event's point through its kind's label;
// events of sweeps outside the table (ccmanalyze's) label by range.
func pointLabel(p Progress) string {
	k, ok := lookupKind(p.Sweep)
	if !ok {
		k = kinds[0]
	}
	return k.label(p)
}

// sampleJSON is the JSON view of a stats.Sample summary, the building
// block of every kind's row view. Row views are plain structs, so their
// JSON is deterministic: fixed field order, float formatting by
// encoding/json.
type sampleJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func sampleView(s *stats.Sample) sampleJSON {
	return sampleJSON{N: s.N(), Mean: s.Mean(), StdDev: s.StdDev(), Min: s.Min(), Max: s.Max()}
}
