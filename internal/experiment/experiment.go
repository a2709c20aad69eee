// Package experiment is the harness that regenerates every table and figure
// of the paper's evaluation (§VI): it sweeps the inter-tag range r, runs the
// three protocols over freshly sampled deployments, aggregates per-trial
// metrics, and renders the paper's tables.
// Trials are fanned out over a worker pool (see runner.go) and every
// trial's seeds are position-derived: the deployment and protocol seeds of
// trial t at sweep point p are prng.DeriveSeed(cfg.Seed, key(p), t, stream),
// not draws from a shared generator in loop order. That makes the reported
// numbers independent of scheduling — `Workers: 1` and `Workers: N` produce
// bit-identical Results — and it means inserting, skipping, or reordering
// sweep points cannot reshuffle which deployment a given (point, trial)
// gets. TestSeedDerivationPinned pins the exact derivation.
package experiment

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"netags/internal/core"
	"netags/internal/energy"
	"netags/internal/geom"
	"netags/internal/gmle"
	"netags/internal/obs"
	"netags/internal/sicp"
	"netags/internal/stats"
	"netags/internal/topology"
	"netags/internal/trp"
)

// Protocol identifies one protocol under evaluation.
type Protocol string

// The protocols of §VI-B, plus the CICP extension.
const (
	GMLECCM Protocol = "GMLE-CCM"
	TRPCCM  Protocol = "TRP-CCM"
	SICP    Protocol = "SICP"
	CICP    Protocol = "CICP"
)

// Config parameterizes a sweep. The zero value is not valid; start from
// Paper() or Quick(). N, Radius, Trials, Seed, and Workers live in the
// embedded BaseConfig shared with the other sweeps.
type Config struct {
	BaseConfig
	// RValues are the inter-tag ranges to sweep.
	RValues []float64
	// GMLEFrame / TRPFrame are the application frame sizes. GMLE's sampling
	// probability is set to 1.59·f/N as in §VI-B.
	GMLEFrame int
	TRPFrame  int
	// Protocols selects what to run; empty means the paper's three.
	Protocols []Protocol
	// ContentionWindow forwards to SICP/CICP.
	ContentionWindow int
	// DisableIndicatorVector runs the CCM protocols without §III-D
	// silencing (the flooding ablation).
	DisableIndicatorVector bool
}

// Paper returns the full §VI-A configuration: n = 10,000 tags in a 30 m
// disk, r swept 2–10 m, 100 trials.
func Paper() Config {
	return Config{
		BaseConfig: BaseConfig{
			N:      10000,
			Radius: 30,
			Trials: 100,
			Seed:   1,
		},
		RValues:   []float64{2, 3, 4, 5, 6, 7, 8, 9, 10},
		GMLEFrame: gmle.PaperFrameSize,
		TRPFrame:  trp.PaperFrameSize,
		Protocols: []Protocol{SICP, GMLECCM, TRPCCM},
	}
}

// Quick returns a scaled-down configuration for tests and smoke runs:
// paper geometry, fewer trials.
func Quick() Config {
	c := Paper()
	c.Trials = 3
	c.RValues = []float64{2, 6, 10}
	return c
}

// Metrics aggregates one protocol's per-trial observations at one r.
type Metrics struct {
	Slots       stats.Sample // execution time, total slot count (Fig. 4)
	MaxSent     stats.Sample // Table I
	MaxReceived stats.Sample // Table II
	AvgSent     stats.Sample // Table III
	AvgReceived stats.Sample // Table IV
}

// Row holds everything measured at one inter-tag range.
type Row struct {
	R     float64
	Tiers stats.Sample // Fig. 3
	// ByProtocol maps each protocol to its metrics.
	ByProtocol map[Protocol]*Metrics
}

// protoMetricsJSON is one protocol's aggregates at one range point.
type protoMetricsJSON struct {
	Protocol    string     `json:"protocol"`
	Slots       sampleJSON `json:"slots"`
	MaxSent     sampleJSON `json:"max_sent"`
	MaxReceived sampleJSON `json:"max_received"`
	AvgSent     sampleJSON `json:"avg_sent"`
	AvgReceived sampleJSON `json:"avg_received"`
}

type rangeRowJSON struct {
	R         float64            `json:"r"`
	Tiers     sampleJSON         `json:"tiers"`
	Protocols []protoMetricsJSON `json:"protocols"`
}

// jsonView is the row's JSON form, protocols in the canonical order
// whatever order the map iterates in.
func (row Row) jsonView() any {
	rj := rangeRowJSON{R: row.R, Tiers: sampleView(&row.Tiers)}
	for _, proto := range protocolOrder {
		m, ok := row.ByProtocol[proto]
		if !ok {
			continue
		}
		rj.Protocols = append(rj.Protocols, protoMetricsJSON{
			Protocol:    string(proto),
			Slots:       sampleView(&m.Slots),
			MaxSent:     sampleView(&m.MaxSent),
			MaxReceived: sampleView(&m.MaxReceived),
			AvgSent:     sampleView(&m.AvgSent),
			AvgReceived: sampleView(&m.AvgReceived),
		})
	}
	return rj
}

// Results is the output of a sweep.
type Results struct {
	Config Config
	Rows   []Row
}

// rangeTrial is one deployment's measurements, carried out of the worker
// pool and reduced into Row accumulators in grid order afterwards.
type rangeTrial struct {
	tiers  int
	protos []protoObs // indexed like rangeProtocols
}

func (t rangeTrial) tierCount() int { return t.tiers }

// protoObs is one protocol's raw observations for one trial.
type protoObs struct {
	slots                int64
	maxSent, maxReceived int64
	avgSent, avgReceived float64
}

// RunContext executes the sweep, fanning the (r, trial) grid out over
// cfg.Workers goroutines (0 = GOMAXPROCS). Results are bit-identical for
// every worker count. observe, if non-nil, receives one Progress event per
// completed trial, serialized but in completion order. It is Run on the
// range kind with cfg taken as given, not normalized: frames and radius
// must be set, and only an empty Protocols defaults (to the paper's three).
func RunContext(ctx context.Context, cfg Config, observe func(Progress)) (*Results, error) {
	s := Spec{
		Sweep: SweepRange, N: cfg.N, Radius: cfg.Radius, Trials: cfg.Trials, Seed: cfg.Seed,
		RValues: cfg.RValues, GMLEFrame: cfg.GMLEFrame, TRPFrame: cfg.TRPFrame,
		ContentionWindow: cfg.ContentionWindow, DisableIndicatorVector: cfg.DisableIndicatorVector,
	}
	for _, p := range cfg.Protocols {
		s.Protocols = append(s.Protocols, string(p))
	}
	rep, err := Run(ctx, s, Exec{Workers: cfg.Workers, Tracer: cfg.Tracer, Observe: observe})
	if err != nil {
		return nil, err
	}
	res := rep.(*Results)
	res.Config = cfg
	return res, nil
}

// rangeConfig is the range sweep's Config view of a spec.
func (s Spec) rangeConfig() Config {
	return Config{
		BaseConfig: BaseConfig{N: s.N, Radius: s.Radius, Trials: s.Trials, Seed: s.Seed},
		RValues:    s.RValues, GMLEFrame: s.GMLEFrame, TRPFrame: s.TRPFrame,
		Protocols: rangeProtocols(s), ContentionWindow: s.ContentionWindow,
		DisableIndicatorVector: s.DisableIndicatorVector,
	}
}

// protocolOrder is the canonical protocol order: spec normalization, row
// encoding and rendering all list protocols in it.
var protocolOrder = []Protocol{SICP, CICP, GMLECCM, TRPCCM}

// rangeProtocols is the protocol list a range spec runs, in the spec's
// order: the paper's three when the spec names none.
func rangeProtocols(s Spec) []Protocol {
	if len(s.Protocols) == 0 {
		return []Protocol{SICP, GMLECCM, TRPCCM}
	}
	out := make([]Protocol, len(s.Protocols))
	for i, p := range s.Protocols {
		out[i] = Protocol(p)
	}
	return out
}

// canonicalProtocols dedupes and orders a protocol list into protocolOrder.
// Unknown names sort last (alphabetically) so normalization stays total;
// validation rejects them afterwards.
func canonicalProtocols(in []string) []string {
	rank := func(p string) int {
		if i := slices.Index(protocolOrder, Protocol(p)); i >= 0 {
			return i
		}
		return len(protocolOrder)
	}
	out := slices.Clone(in)
	slices.SortFunc(out, func(a, b string) int { return cmp.Or(rank(a)-rank(b), strings.Compare(a, b)) })
	return slices.Compact(out)
}

func validateRange(s Spec) error {
	if s.N <= 0 {
		return fmt.Errorf("experiment: population N must be positive, got %d", s.N)
	}
	for _, r := range s.RValues {
		if !(r > 0) {
			return fmt.Errorf("experiment: inter-tag range %g must be positive", r)
		}
	}
	for _, p := range s.Protocols {
		if !slices.Contains(protocolOrder, Protocol(p)) {
			return fmt.Errorf("experiment: unknown protocol %q", p)
		}
	}
	if s.GMLEFrame <= 0 || s.TRPFrame <= 0 {
		return fmt.Errorf("experiment: frame sizes must be positive")
	}
	if s.ContentionWindow < 0 {
		return fmt.Errorf("experiment: contention window must be >= 0, got %d", s.ContentionWindow)
	}
	return nil
}

// rangeTrialFunc runs every selected protocol over one deployment at
// inter-tag range r.
func rangeTrialFunc(s Spec, tracer obs.Tracer) func(context.Context, float64, int, TrialSeeds) (rangeTrial, error) {
	protocols := rangeProtocols(s)
	return func(_ context.Context, r float64, trial int, seeds TrialSeeds) (rangeTrial, error) {
		d := geom.NewUniformDisk(s.N, s.Radius, seeds.Deploy)
		nw, err := topology.Build(d, 0, topology.PaperRanges(r))
		if err != nil {
			return rangeTrial{}, fmt.Errorf("r=%v trial %d: %w", r, trial, err)
		}
		in := func(i int) bool { return nw.Tier[i] > 0 }
		tr := rangeTrial{tiers: nw.K, protos: make([]protoObs, len(protocols))}
		for pi, p := range protocols {
			clock, meter, err := runProtocol(p, nw, s, tracer, seeds.Proto)
			if err != nil {
				return rangeTrial{}, fmt.Errorf("r=%v trial %d %s: %w", r, trial, p, err)
			}
			sum := meter.Summarize(in)
			tr.protos[pi] = protoObs{
				slots:       clock.Total(),
				maxSent:     sum.MaxSent,
				maxReceived: sum.MaxReceived,
				avgSent:     sum.AvgSent,
				avgReceived: sum.AvgReceived,
			}
		}
		return tr, nil
	}
}

// buildRangeRow folds one point's trials (in trial order) into its Row.
// It reads nothing outside the point, so the Row is a pure function of
// (point, trials) — per-point results are content-addressable.
func buildRangeRow(s Spec, r float64, trials []rangeTrial) Row {
	protocols := rangeProtocols(s)
	row := Row{R: r, ByProtocol: make(map[Protocol]*Metrics, len(protocols))}
	for _, p := range protocols {
		row.ByProtocol[p] = &Metrics{}
	}
	for _, tr := range trials {
		row.Tiers.Add(float64(tr.tiers))
		for i, p := range protocols {
			o, m := tr.protos[i], row.ByProtocol[p]
			m.Slots.Add(float64(o.slots))
			m.MaxSent.Add(float64(o.maxSent))
			m.MaxReceived.Add(float64(o.maxReceived))
			m.AvgSent.Add(o.avgSent)
			m.AvgReceived.Add(o.avgReceived)
		}
	}
	return row
}

// runProtocol runs protocol p over nw with the spec's frames and knobs.
func runProtocol(p Protocol, nw *topology.Network, s Spec, tracer obs.Tracer, seed uint64) (energy.Clock, *energy.Meter, error) {
	switch p {
	case GMLECCM, TRPCCM:
		cfg := core.Config{FrameSize: s.TRPFrame, Seed: seed, Sampling: 1,
			DisableIndicatorVector: s.DisableIndicatorVector, Tracer: tracer}
		if p == GMLECCM {
			cfg.FrameSize, cfg.Sampling = s.GMLEFrame, gmle.SamplingFor(s.GMLEFrame, float64(s.N))
		}
		if s.DisableIndicatorVector {
			// Flooding needs more rounds than Algorithm 1's L_c bound: the
			// inner tags' bits keep rippling outward after the reader has
			// everything.
			cfg.MaxRounds = 4 * nw.Ranges.CheckingFrameLen()
		}
		r, err := core.RunSession(nw, cfg)
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.Clock, r.Meter, nil
	case SICP, CICP:
		collect := sicp.Collect
		if p == CICP {
			collect = sicp.CollectCICP
		}
		r, err := collect(nw, sicp.Options{Seed: seed, ContentionWindow: s.ContentionWindow, Tracer: tracer})
		if err != nil {
			return energy.Clock{}, nil, err
		}
		return r.Clock, r.Meter, nil
	}
	return energy.Clock{}, nil, fmt.Errorf("experiment: unknown protocol %q", p)
}

// Render helpers ------------------------------------------------------------

// RenderFig3 prints the tier count versus r (Fig. 3).
func (r *Results) RenderFig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: number of tiers (n=%d, %d trials)\n", r.Config.N, r.Config.Trials)
	fmt.Fprintf(&b, "%6s  %s\n", "r (m)", "tiers (mean ± ci95)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6g  %.2f ± %.2f\n", row.R, row.Tiers.Mean(), row.Tiers.CI95())
	}
	return b.String()
}

// RenderFig4 prints execution time versus r for every protocol (Fig. 4).
func (r *Results) RenderFig4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: execution time in slots (n=%d, %d trials)\n", r.Config.N, r.Config.Trials)
	protos := r.protocols()
	fmt.Fprintf(&b, "%6s", "r (m)")
	for _, p := range protos {
		fmt.Fprintf(&b, "  %12s", p)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6g", row.R)
		for _, p := range protos {
			fmt.Fprintf(&b, "  %12.0f", row.ByProtocol[p].Slots.Mean())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TableMetric selects which paper table to render.
type TableMetric int

// The four energy tables of §VI-B.
const (
	TableMaxSent TableMetric = iota + 1
	TableMaxReceived
	TableAvgSent
	TableAvgReceived
)

func (t TableMetric) String() string {
	switch t {
	case TableMaxSent:
		return "Table I: maximum number of bits sent per tag"
	case TableMaxReceived:
		return "Table II: maximum number of bits received per tag"
	case TableAvgSent:
		return "Table III: average number of bits sent per tag"
	case TableAvgReceived:
		return "Table IV: average number of bits received per tag"
	}
	return "unknown table"
}

func (m *Metrics) value(t TableMetric) float64 {
	switch t {
	case TableMaxSent:
		return m.MaxSent.Mean()
	case TableMaxReceived:
		return m.MaxReceived.Mean()
	case TableAvgSent:
		return m.AvgSent.Mean()
	case TableAvgReceived:
		return m.AvgReceived.Mean()
	}
	return 0
}

// RenderTable prints one of the paper's four energy tables: protocols as
// rows, r values as columns, exactly like the paper's layout.
func (r *Results) RenderTable(t TableMetric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, %d trials)\n", t, r.Config.N, r.Config.Trials)
	fmt.Fprintf(&b, "%-10s", "")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  r=%-8g", row.R)
	}
	b.WriteByte('\n')
	for _, p := range r.protocols() {
		fmt.Fprintf(&b, "%-10s", p)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-10.1f", row.ByProtocol[p].value(t))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String prints every figure and table (Report): Render(0, 0).
func (r *Results) String() string { return r.Render(0, 0) }

// Render prints the selected figures and tables, each followed by a blank
// line: Fig. 3 and 4, then Tables I–IV. figure (3 or 4) and table (1–4)
// pick one each, and 0, 0 picks all of them.
func (r *Results) Render(figure, table int) string {
	all := figure == 0 && table == 0
	var b strings.Builder
	if all || figure == 3 {
		b.WriteString(r.RenderFig3() + "\n")
	}
	if all || figure == 4 {
		b.WriteString(r.RenderFig4() + "\n")
	}
	for t := TableMaxSent; t <= TableAvgReceived; t++ {
		if all || table == int(t) {
			b.WriteString(r.RenderTable(t) + "\n")
		}
	}
	return b.String()
}

// CSV dumps every metric in long form for external plotting.
func (r *Results) CSV() string {
	var b strings.Builder
	b.WriteString("r,protocol,metric,mean,ci95,min,max\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%g,,tiers,%g,%g,%g,%g\n",
			row.R, row.Tiers.Mean(), row.Tiers.CI95(), row.Tiers.Min(), row.Tiers.Max())
		for _, p := range r.protocols() {
			m := row.ByProtocol[p]
			named := []struct {
				name string
				s    *stats.Sample
			}{
				{"slots", &m.Slots}, {"max_sent", &m.MaxSent},
				{"max_received", &m.MaxReceived}, {"avg_sent", &m.AvgSent},
				{"avg_received", &m.AvgReceived},
			}
			for _, ns := range named {
				fmt.Fprintf(&b, "%g,%s,%s,%g,%g,%g,%g\n",
					row.R, p, ns.name, ns.s.Mean(), ns.s.CI95(), ns.s.Min(), ns.s.Max())
			}
		}
	}
	return b.String()
}

// protocols returns the protocols present in the results, in a stable order.
func (r *Results) protocols() []Protocol {
	if len(r.Rows) == 0 {
		return nil
	}
	var out []Protocol
	for _, p := range protocolOrder {
		if _, ok := r.Rows[0].ByProtocol[p]; ok {
			out = append(out, p)
		}
	}
	return out
}
