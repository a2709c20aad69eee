package experiment

import (
	"context"
	"strings"
	"testing"

	"netags/internal/gmle"
	"netags/internal/trp"
)

// tinyConfig keeps unit tests fast: small population, two r values, two
// trials, all four protocols.
func tinyConfig() Config {
	c := Paper()
	c.N = 600
	c.Trials = 2
	c.RValues = []float64{4, 8}
	c.Protocols = []Protocol{SICP, CICP, GMLECCM, TRPCCM}
	return c
}

func TestRunProducesAllMetrics(t *testing.T) {
	res, err := RunContext(context.Background(), tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Tiers.N() != 2 {
			t.Fatalf("r=%v: %d tier samples, want 2", row.R, row.Tiers.N())
		}
		for p, m := range row.ByProtocol {
			if m.Slots.N() != 2 || m.Slots.Mean() <= 0 {
				t.Fatalf("r=%v %s: bad slot samples", row.R, p)
			}
			if m.AvgSent.Mean() <= 0 || m.AvgReceived.Mean() <= 0 {
				t.Fatalf("r=%v %s: zero energy metrics", row.R, p)
			}
			if m.MaxSent.Mean() < m.AvgSent.Mean() {
				t.Fatalf("r=%v %s: max sent below avg sent", row.R, p)
			}
			if m.MaxReceived.Mean() < m.AvgReceived.Mean() {
				t.Fatalf("r=%v %s: max received below avg received", row.R, p)
			}
		}
	}
}

// TestPaperShapeHolds is the harness-level statement of the paper's headline
// claims on a scaled-down deployment: CCM beats SICP on every metric, and
// time decreases with r while CCM sent-bits increase with r.
func TestPaperShapeHolds(t *testing.T) {
	cfg := tinyConfig()
	cfg.N = 2500
	cfg.Protocols = []Protocol{SICP, GMLECCM, TRPCCM}
	cfg.RValues = []float64{4, 8}
	// Frame sizes must be sized for the population, exactly as the paper
	// sizes 1671/3228 for n = 10,000 (§VI-B).
	var err error
	cfg.TRPFrame, err = trp.FrameSizeFor(cfg.N, cfg.N/200, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GMLEFrame, err = gmle.FrameSizeFor(0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		s := row.ByProtocol[SICP]
		for _, p := range []Protocol{GMLECCM, TRPCCM} {
			c := row.ByProtocol[p]
			if c.Slots.Mean() >= s.Slots.Mean() {
				t.Errorf("r=%v: %s slots %.0f >= SICP %.0f", row.R, p, c.Slots.Mean(), s.Slots.Mean())
			}
			if c.AvgSent.Mean() >= s.AvgSent.Mean() {
				t.Errorf("r=%v: %s avg sent %.1f >= SICP %.1f", row.R, p, c.AvgSent.Mean(), s.AvgSent.Mean())
			}
			if c.AvgReceived.Mean() >= s.AvgReceived.Mean() {
				t.Errorf("r=%v: %s avg received %.1f >= SICP %.1f", row.R, p, c.AvgReceived.Mean(), s.AvgReceived.Mean())
			}
		}
	}
	// Fewer tiers at larger r (Fig. 3), so CCM runs faster (Fig. 4)…
	if res.Rows[0].Tiers.Mean() <= res.Rows[1].Tiers.Mean() {
		t.Error("tier count did not decrease with r")
	}
	g0 := res.Rows[0].ByProtocol[GMLECCM]
	g1 := res.Rows[1].ByProtocol[GMLECCM]
	if g0.Slots.Mean() <= g1.Slots.Mean() {
		t.Error("GMLE-CCM time did not decrease with r")
	}
	// …while per-tag relaying grows with r (Tables I/III discussion).
	if g0.AvgSent.Mean() >= g1.AvgSent.Mean() {
		t.Error("GMLE-CCM sent bits did not increase with r")
	}
	// And received bits shrink with r (Tables II/IV discussion).
	if g0.AvgReceived.Mean() <= g1.AvgReceived.Mean() {
		t.Error("GMLE-CCM received bits did not decrease with r")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for p := range a.Rows[i].ByProtocol {
			if a.Rows[i].ByProtocol[p].Slots.Mean() != b.Rows[i].ByProtocol[p].Slots.Mean() {
				t.Fatalf("r=%v %s: nondeterministic", a.Rows[i].R, p)
			}
		}
	}
}

func TestRunValidation(t *testing.T) {
	base := BaseConfig{N: 10, Radius: 30, Trials: 1}
	bad := []Config{
		{},
		{BaseConfig: base, RValues: []float64{6}},                                                                             // missing frames
		{BaseConfig: base, RValues: []float64{6}, GMLEFrame: 8, TRPFrame: 8, Protocols: []Protocol{"bogus"}},                  // unknown protocol
		{BaseConfig: BaseConfig{N: 10, Radius: 30, Trials: 1, Workers: -1}, RValues: []float64{6}, GMLEFrame: 8, TRPFrame: 8}, // negative workers
	}
	for i, cfg := range bad {
		if _, err := RunContext(context.Background(), cfg, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := tinyConfig()
	cfg.RValues = []float64{6}
	cfg.Trials = 2
	var lines []string
	if _, err := RunContext(context.Background(), cfg, func(p Progress) { lines = append(lines, p.String()) }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("progress lines = %d, want 2", len(lines))
	}
}

func TestRenderers(t *testing.T) {
	res, err := RunContext(context.Background(), tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fig3 := res.RenderFig3()
	if !strings.Contains(fig3, "Fig. 3") || !strings.Contains(fig3, "r (m)") {
		t.Errorf("Fig. 3 render missing headers:\n%s", fig3)
	}
	fig4 := res.RenderFig4()
	for _, p := range []Protocol{SICP, CICP, GMLECCM, TRPCCM} {
		if !strings.Contains(fig4, string(p)) {
			t.Errorf("Fig. 4 render missing %s:\n%s", p, fig4)
		}
	}
	for _, tm := range []TableMetric{TableMaxSent, TableMaxReceived, TableAvgSent, TableAvgReceived} {
		out := res.RenderTable(tm)
		if !strings.Contains(out, "Table") || !strings.Contains(out, "GMLE-CCM") {
			t.Errorf("table %v render broken:\n%s", tm, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "r,protocol,metric,") {
		t.Error("CSV header missing")
	}
	// 1 tiers line + 4 protocols × 5 metrics per r, 2 r values, + header.
	wantLines := 1 + 2*(1+4*5)
	if got := strings.Count(csv, "\n"); got != wantLines {
		t.Errorf("CSV has %d lines, want %d", got, wantLines)
	}
}

func TestAblationConfigRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocols = []Protocol{GMLECCM}
	cfg.RValues = []float64{6}
	base, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableIndicatorVector = true
	flood, err := RunContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := base.Rows[0].ByProtocol[GMLECCM]
	f := flood.Rows[0].ByProtocol[GMLECCM]
	if f.AvgSent.Mean() <= b.AvgSent.Mean() {
		t.Errorf("flooding avg sent %.1f <= indicator-vector %.1f",
			f.AvgSent.Mean(), b.AvgSent.Mean())
	}
}
