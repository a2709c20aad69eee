package httpserve

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"netags/internal/obs"
)

// expositionLine matches one Prometheus text-format sample:
// name{labels} value — labels optional, value a float, inf, or NaN.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? ` +
		`(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]?Inf|NaN)$`)

// checkExposition validates every line of a /metrics body and returns the
// parsed samples by full series name (labels included).
func checkExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d is not valid exposition format: %q", i+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d value: %v", i+1, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// collectorText renders a collector's registered families.
func collectorText(t *testing.T, c *obs.Collector) string {
	t.Helper()
	reg := obs.NewRegistry()
	c.Register(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteMetricsExposition: the collector's families render through the
// registry as counters, cumulative histograms and summary gauges.
func TestWriteMetricsExposition(t *testing.T) {
	c := obs.NewCollector()
	// Two sessions: rounds with waves 0, 3, and 5, one truncated end.
	c.Trace(obs.Event{Kind: obs.KindFrame, NewBusy: 0})
	c.Trace(obs.Event{Kind: obs.KindFrame, NewBusy: 3})
	c.Trace(obs.Event{Kind: obs.KindFrame, NewBusy: 5})
	c.Trace(obs.Event{Kind: obs.KindCheck, Slots: 8})
	c.Trace(obs.Event{Kind: obs.KindSessionEnd, Rounds: 3, ShortSlots: 100, LongSlots: 4,
		KnownBusy: 5, AvgSentBits: 2.5, MaxSentBits: 7})
	c.Trace(obs.Event{Kind: obs.KindSessionEnd, Rounds: 1, Truncated: true})

	samples := checkExposition(t, collectorText(t, c))

	if samples["netags_sessions_total"] != 2 {
		t.Errorf("sessions_total = %g", samples["netags_sessions_total"])
	}
	if samples["netags_truncated_sessions_total"] != 1 {
		t.Errorf("truncated = %g", samples["netags_truncated_sessions_total"])
	}
	if samples["netags_rounds_total"] != 4 {
		t.Errorf("rounds = %g", samples["netags_rounds_total"])
	}
	if samples["netags_busy_slots_total"] != 5 {
		t.Errorf("busy slots = %g", samples["netags_busy_slots_total"])
	}
	// Wave histogram: one zero, one 3 (bucket [2,4) → le="3"), one 5
	// (bucket [4,8) → le="7"); buckets are cumulative.
	if samples[`netags_round_new_busy_slots_bucket{le="0"}`] != 1 {
		t.Errorf("le=0 bucket = %g", samples[`netags_round_new_busy_slots_bucket{le="0"}`])
	}
	if samples[`netags_round_new_busy_slots_bucket{le="3"}`] != 2 {
		t.Errorf("le=3 bucket = %g", samples[`netags_round_new_busy_slots_bucket{le="3"}`])
	}
	if samples[`netags_round_new_busy_slots_bucket{le="7"}`] != 3 {
		t.Errorf("le=7 bucket = %g", samples[`netags_round_new_busy_slots_bucket{le="7"}`])
	}
	if samples[`netags_round_new_busy_slots_bucket{le="+Inf"}`] != 3 {
		t.Errorf("+Inf bucket = %g", samples[`netags_round_new_busy_slots_bucket{le="+Inf"}`])
	}
	if samples["netags_round_new_busy_slots_sum"] != 8 || samples["netags_round_new_busy_slots_count"] != 3 {
		t.Errorf("wave sum/count = %g/%g",
			samples["netags_round_new_busy_slots_sum"], samples["netags_round_new_busy_slots_count"])
	}
	if samples["netags_sent_bits_mean"] != 1.25 { // (2.5 + 0)/2 per-session averages
		t.Errorf("sent mean = %g", samples["netags_sent_bits_mean"])
	}
}

func TestWriteMetricsEmptySnapshot(t *testing.T) {
	samples := checkExposition(t, collectorText(t, obs.NewCollector()))
	if samples["netags_sessions_total"] != 0 {
		t.Errorf("empty snapshot sessions = %g", samples["netags_sessions_total"])
	}
	if samples[`netags_check_frame_slots_bucket{le="+Inf"}`] != 0 {
		t.Errorf("empty histogram +Inf bucket missing or nonzero")
	}
}
