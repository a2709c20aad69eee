package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestRunLossSweep(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Sweep: SweepLoss, N: 800, Radius: 30, Trials: 3, Seed: 1,
		R:          6,
		LossValues: []float64{0, 0.3, 0.8},
	}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.(*LossResults)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// Reliable channel: full delivery, zero accusations.
	r0 := res.Rows[0]
	if r0.Delivery.Mean() != 1 {
		t.Errorf("loss=0 delivery %v, want 1", r0.Delivery.Mean())
	}
	if r0.FalsePositives.Mean() != 0 {
		t.Errorf("loss=0 false positives %v, want 0", r0.FalsePositives.Mean())
	}
	// Heavy loss: strictly worse delivery and some accusations.
	r2 := res.Rows[2]
	if r2.Delivery.Mean() >= r0.Delivery.Mean() {
		t.Error("delivery did not degrade with loss")
	}
	if r2.FalsePositives.Mean() <= 0 {
		t.Error("heavy loss produced no false accusations (implausible)")
	}
	out := res.String()
	if !strings.Contains(out, "delivery") || !strings.Contains(out, "0.80") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestRunLossSweepValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Sweep: SweepLoss}, Exec{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(context.Background(), Spec{
		Sweep: SweepLoss, N: 10, Radius: 30, Trials: 1,
		R: 6, LossValues: []float64{1.5},
	}, Exec{}); err == nil {
		t.Error("loss >= 1 accepted")
	}
}

func TestRunDensitySweep(t *testing.T) {
	rep, err := Run(context.Background(), Spec{
		Sweep: SweepDensity, Radius: 30, Trials: 2, Seed: 3,
		NValues: []int{500, 2000},
		R:       6,
	}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.(*DensityResults)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	small, large := res.Rows[0], res.Rows[1]
	// SICP time grows with the population…
	if large.SICPSlots.Mean() <= small.SICPSlots.Mean() {
		t.Error("SICP time did not grow with n")
	}
	// …much faster than CCM's (frame growth only): the SICP/CCM ratio must
	// widen.
	smallRatio := small.SICPSlots.Mean() / small.TRPSlots.Mean()
	largeRatio := large.SICPSlots.Mean() / large.TRPSlots.Mean()
	if largeRatio <= smallRatio {
		t.Errorf("SICP/TRP ratio did not widen with n: %.1f -> %.1f", smallRatio, largeRatio)
	}
	if out := res.String(); !strings.Contains(out, "Population sweep") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestRunDensitySweepValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Sweep: SweepDensity}, Exec{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(context.Background(), Spec{
		Sweep: SweepDensity, Radius: 30, Trials: 1,
		NValues: []int{0}, R: 6,
	}, Exec{}); err == nil {
		t.Error("zero population accepted")
	}
}
