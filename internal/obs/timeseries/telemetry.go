package timeseries

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"netags/internal/obs"
)

// LoadRules resolves an -slo-rules flag value: "off" (or "none") disables
// alerting, empty returns defaults, a leading '[' is inline JSON, anything
// else is read as a file path.
func LoadRules(arg string, defaults []Rule) ([]Rule, error) {
	arg = strings.TrimSpace(arg)
	switch arg {
	case "off", "none":
		return nil, nil
	case "":
		return defaults, nil
	}
	data := []byte(arg)
	if !strings.HasPrefix(arg, "[") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("-slo-rules: %w", err)
		}
		data = b
	}
	return ParseRules(data)
}

// Telemetry is a running history engine: the DB, the sampler feeding it
// from a registry and the Go runtime, and the alert evaluator (nil when
// there are no rules).
type Telemetry struct {
	DB      *DB
	Alerts  *Evaluator
	sampler *Sampler
}

// StartTelemetry registers the engine's own families into reg, checks the
// rules against reg's series and RuntimeSource's (CheckRules), and starts
// sampling every resolution, evaluating the rules on each tick. Alert
// transitions are logged on log and mirrored into tracer as
// obs.KindAlert events (either may be nil).
func StartTelemetry(reg *obs.Registry, rules []Rule, resolution, retention time.Duration,
	log *slog.Logger, tracer obs.Tracer) (*Telemetry, error) {
	t := &Telemetry{DB: New(resolution, retention)}
	t.DB.Register(reg)
	if len(rules) > 0 {
		t.Alerts = NewEvaluator(t.DB, rules, alertHook(log, tracer))
		t.Alerts.Register(reg)
	}
	known := func(name string) bool { return reg.HasSeries(name) || IsRuntimeSeries(name) }
	if err := CheckRules(rules, known); err != nil {
		return nil, fmt.Errorf("slo rules: %w", err)
	}
	t.sampler = NewSampler(t.DB, reg.Source(Series(rules)...), RuntimeSource())
	if t.Alerts != nil {
		t.sampler.OnTick(t.Alerts.Evaluate)
	}
	t.sampler.Start()
	return t, nil
}

// Stop halts the sampler.
func (t *Telemetry) Stop() { t.sampler.Stop() }

func alertHook(log *slog.Logger, tracer obs.Tracer) func(Rule, bool, float64) {
	return func(r Rule, firing bool, measured float64) {
		state, level := "resolved", slog.LevelInfo
		if firing {
			state, level = "firing", slog.LevelWarn
		}
		if log != nil {
			log.LogAttrs(context.Background(), level, "slo alert "+state,
				slog.String("rule", r.Name), slog.Float64("measured", measured),
				slog.Float64("window_s", r.WindowS))
		}
		if tracer != nil {
			tracer.Trace(obs.Event{
				Kind: obs.KindAlert, Protocol: obs.ProtoSLO,
				Phase: r.Name + ":" + state, Value: measured,
			})
		}
	}
}
