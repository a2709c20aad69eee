package timeseries

import (
	"strings"
	"testing"
	"time"

	"netags/internal/obs"
)

func burnRule() Rule {
	return Rule{
		Name: "e2e_burn", WindowS: 10,
		Good: "good", Total: "total",
		Objective: 0.9, Burn: 2, MinTotal: 5,
	}
}

// feedCounters records cumulative good/total readings once per second.
// ok=false seconds add failures (total rises, good doesn't).
func feedCounters(db *DB, startMS int64, seconds int, perSec float64, okRatio float64) int64 {
	var good, total float64
	t := startMS
	for i := 0; i < seconds; i++ {
		total += perSec
		good += perSec * okRatio
		db.Record("total", ms(t), total)
		db.Record("good", ms(t), good)
		t += 1000
	}
	return t
}

func TestBurnRuleFiresAndResolves(t *testing.T) {
	db := New(time.Second, time.Minute)
	var transitions []string
	ev := NewEvaluator(db, []Rule{burnRule()}, func(r Rule, firing bool, v float64) {
		state := "resolved"
		if firing {
			state = "firing"
		}
		transitions = append(transitions, r.Name+":"+state)
	})

	// Healthy traffic: 10/s, all good. Burn = 0.
	now := feedCounters(db, 0, 15, 10, 1.0)
	ev.Evaluate(ms(now))
	if got := ev.States(); got[0].Firing {
		t.Fatalf("healthy traffic fired: %+v", got)
	}
	if ev.FiringCount() != 0 {
		t.Fatalf("FiringCount = %d, want 0", ev.FiringCount())
	}

	// Overload: half the requests go bad. Error rate 0.5 / budget 0.1 =
	// burn 5 >= threshold 2 -> firing.
	now = feedCounters(db, now, 12, 10, 0.5)
	ev.Evaluate(ms(now))
	st := ev.States()[0]
	if !st.Firing {
		t.Fatalf("overload did not fire: %+v", st)
	}
	if st.Value < 4 || st.Value > 6 {
		t.Errorf("burn rate = %g, want ~5", st.Value)
	}
	if st.WindowTotal <= 0 {
		t.Errorf("window total = %g, want > 0", st.WindowTotal)
	}

	// Load drops entirely: counters go flat. Once the bad deltas age out of
	// the window the rule resolves (no traffic, no burn).
	flatEnd := now + 15_000
	var lastTotal, lastGood float64
	if s, _ := db.Samples("total"); len(s) > 0 {
		lastTotal = s[len(s)-1].V
	}
	if s, _ := db.Samples("good"); len(s) > 0 {
		lastGood = s[len(s)-1].V
	}
	for tt := now; tt < flatEnd; tt += 1000 {
		db.Record("total", ms(tt), lastTotal)
		db.Record("good", ms(tt), lastGood)
	}
	ev.Evaluate(ms(flatEnd))
	if st := ev.States()[0]; st.Firing {
		t.Fatalf("rule did not resolve after load dropped: %+v", st)
	}

	want := []string{"e2e_burn:firing", "e2e_burn:resolved"}
	if len(transitions) != 2 || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Errorf("transitions = %v, want %v", transitions, want)
	}
}

func TestBurnRuleMinTotalSuppressesIdle(t *testing.T) {
	db := New(time.Second, time.Minute)
	ev := NewEvaluator(db, []Rule{burnRule()}, nil)
	// 2 requests in the window, both bad — below MinTotal 5, so no verdict.
	db.Record("total", ms(0), 0)
	db.Record("good", ms(0), 0)
	db.Record("total", ms(5000), 2)
	db.Record("good", ms(5000), 0)
	ev.Evaluate(ms(6000))
	if st := ev.States()[0]; st.Firing {
		t.Fatalf("fired below min_total: %+v", st)
	}
}

func TestThresholdRule(t *testing.T) {
	db := New(time.Second, time.Minute)
	rule := Rule{Name: "queue_sat", WindowS: 5, Series: "fill", Op: ">=", Value: 0.9}
	ev := NewEvaluator(db, []Rule{rule}, nil)

	for i := int64(0); i < 10; i++ {
		db.Record("fill", ms(i*1000), 0.2)
	}
	ev.Evaluate(ms(9000))
	if ev.States()[0].Firing {
		t.Fatal("fired at fill 0.2")
	}
	for i := int64(10); i < 16; i++ {
		db.Record("fill", ms(i*1000), 0.95)
	}
	ev.Evaluate(ms(15000))
	st := ev.States()[0]
	if !st.Firing || st.Value < 0.9 {
		t.Fatalf("saturated queue did not fire: %+v", st)
	}
}

// TestEvaluatorWriteProm: the evaluator's netags_alert_active family
// renders one gauge per rule through the registry.
func TestEvaluatorWriteProm(t *testing.T) {
	db := New(time.Second, time.Minute)
	rules := []Rule{
		{Name: "hot", WindowS: 5, Series: "g", Op: ">=", Value: 1},
		{Name: "cold", WindowS: 5, Series: "g", Op: "<=", Value: -1},
	}
	ev := NewEvaluator(db, rules, nil)
	db.Record("g", ms(1000), 5)
	ev.Evaluate(ms(1000))
	reg := obs.NewRegistry()
	ev.Register(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `netags_alert_active{rule="hot"} 1`) {
		t.Errorf("missing firing gauge:\n%s", out)
	}
	if !strings.Contains(out, `netags_alert_active{rule="cold"} 0`) {
		t.Errorf("missing resolved gauge:\n%s", out)
	}
}

func TestParseRules(t *testing.T) {
	good := `[
	  {"name":"burn","window_s":60,"good":"g","total":"t","objective":0.99,"burn":6},
	  {"name":"sat","window_s":30,"series":"fill","op":">=","value":0.9}
	]`
	rules, err := ParseRules([]byte(good))
	if err != nil || len(rules) != 2 {
		t.Fatalf("ParseRules: %v (%d rules)", err, len(rules))
	}
	if !rules[0].IsBurn() || rules[1].IsBurn() {
		t.Errorf("rule shapes misdetected: %+v", rules)
	}

	bad := []string{
		`[{"name":"","window_s":1,"series":"x"}]`,                                         // no name
		`[{"name":"r","series":"x"}]`,                                                     // no window
		`[{"name":"r","window_s":1e10,"series":"x"}]`,                                     // window overflows time.Duration
		`[{"name":"r","window_s":1e-10,"series":"x"}]`,                                    // window under a nanosecond
		`[{"name":"r","window_s":1}]`,                                                     // neither shape
		`[{"name":"r","window_s":1,"good":"g"}]`,                                          // burn without total
		`[{"name":"r","window_s":1,"good":"g","total":"t","objective":2}]`,                // bad objective
		`[{"name":"r","window_s":1,"series":"x","op":"!="}]`,                              // bad op
		`[{"name":"r","window_s":1,"series":"x"},{"name":"r","window_s":1,"series":"y"}]`, // dup
		`{not json`,
	}
	for _, in := range bad {
		if _, err := ParseRules([]byte(in)); err == nil {
			t.Errorf("ParseRules accepted %s", in)
		}
	}
}

// TestCheckRules: a rule naming a series no source records, or a burn
// rule whose good and total are one series, is rejected with its name.
func TestCheckRules(t *testing.T) {
	known := func(name string) bool { return name == "good" || name == "total" || name == "fill" }
	ok := []Rule{
		{Name: "burn", WindowS: 1, Good: "good", Total: "total", Objective: 0.9},
		{Name: "sat", WindowS: 1, Series: "fill"},
	}
	if err := CheckRules(ok, known); err != nil {
		t.Fatalf("valid rules rejected: %v", err)
	}
	for _, r := range []Rule{
		{Name: "typo", WindowS: 1, Good: "good", Total: "totl", Objective: 0.9},
		{Name: "same", WindowS: 1, Good: "total", Total: "total", Objective: 0.9},
		{Name: "ghost", WindowS: 1, Series: "nope"},
	} {
		err := CheckRules([]Rule{r}, known)
		if err == nil || !strings.Contains(err.Error(), r.Name) {
			t.Errorf("rule %s: err = %v, want a rejection naming it", r.Name, err)
		}
	}
}
