package timeseries

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"netags/internal/obs"
)

// Rule is one SLO alert rule, evaluated against the DB every sampler tick.
// Two shapes share the struct, discriminated by which fields are set:
//
// Burn-rate rule (Good+Total set): over the trailing window, compute the
// error rate 1 − ΔGood/ΔTotal from two cumulative counter series, divide by
// the rule's error budget (1 − Objective), and fire when that burn rate
// reaches Burn. Burn 1 means "consuming budget exactly as fast as the SLO
// allows"; the classic multiwindow practice pairs a short window with a
// high burn threshold (see DESIGN.md "SLO burn-rate alerting").
//
// Threshold rule (Series set): fire when the window mean of a gauge series
// crosses Value in the direction of Op (">=" or "<=").
type Rule struct {
	// Name labels the rule on /api/v1/alerts, /metrics, and log lines.
	Name string `json:"name"`

	// WindowS is the trailing evaluation window in seconds. Required.
	WindowS float64 `json:"window_s"`

	// Burn-rate fields.
	Good      string  `json:"good,omitempty"`
	Total     string  `json:"total,omitempty"`
	Objective float64 `json:"objective,omitempty"`
	Burn      float64 `json:"burn,omitempty"`
	// MinTotal is the least ΔTotal the window must hold before the rule can
	// fire — no traffic, no burn (defaults to 1).
	MinTotal float64 `json:"min_total,omitempty"`

	// Threshold fields.
	Series string  `json:"series,omitempty"`
	Op     string  `json:"op,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// IsBurn reports whether the rule is a burn-rate rule (vs threshold).
func (r Rule) IsBurn() bool { return r.Good != "" || r.Total != "" }

// Window is the rule's trailing evaluation window. Validate guarantees it
// is positive.
func (r Rule) Window() time.Duration { return time.Duration(r.WindowS * float64(time.Second)) }

// Validate rejects rules that could never evaluate meaningfully. Names are
// restricted to [A-Za-z0-9_.:-] because they travel as Prometheus label
// values and through the hand-rolled /events JSON encoder unescaped.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("rule has no name")
	}
	for _, c := range r.Name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == ':', c == '-':
		default:
			return fmt.Errorf("rule %q: name may only contain [A-Za-z0-9_.:-]", r.Name)
		}
	}
	// The window must hold a whole nanosecond and fit time.Duration: a
	// larger one would wrap negative, a smaller one truncate to zero.
	if ns := r.WindowS * float64(time.Second); !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("rule %q: window_s must be in [1e-9, 9.2e9], got %g", r.Name, r.WindowS)
	}
	if r.IsBurn() {
		if r.Good == "" || r.Total == "" {
			return fmt.Errorf("rule %q: burn rules need both good and total series", r.Name)
		}
		if r.Series != "" {
			return fmt.Errorf("rule %q: cannot mix burn and threshold fields", r.Name)
		}
		if r.Objective <= 0 || r.Objective >= 1 {
			return fmt.Errorf("rule %q: objective must be in (0,1), got %g", r.Name, r.Objective)
		}
		if r.Burn < 0 {
			return fmt.Errorf("rule %q: burn must be >= 0", r.Name)
		}
		return nil
	}
	if r.Series == "" {
		return fmt.Errorf("rule %q: need either good/total (burn) or series (threshold)", r.Name)
	}
	switch r.Op {
	case "", ">=", "<=":
	default:
		return fmt.Errorf("rule %q: op must be \">=\" or \"<=\", got %q", r.Name, r.Op)
	}
	return nil
}

// ParseRules decodes a JSON array of rules and validates each. Duplicate
// names are rejected — the name keys alert state and the /metrics label.
func ParseRules(data []byte) ([]Rule, error) {
	var rules []Rule
	if err := json.Unmarshal(data, &rules); err != nil {
		return nil, fmt.Errorf("parse slo rules: %w", err)
	}
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return rules, nil
}

// AlertState is one rule's externally visible state on /api/v1/alerts.
type AlertState struct {
	Rule   string `json:"rule"`
	Firing bool   `json:"firing"`
	// Since is when the rule last transitioned into its current state
	// (RFC3339); empty until the first evaluation.
	Since string `json:"since,omitempty"`
	// Value is the last measured quantity: burn rate for burn rules, the
	// window mean for threshold rules.
	Value float64 `json:"value"`
	// WindowTotal is ΔTotal over the window (burn rules only) — how much
	// traffic backed the verdict.
	WindowTotal float64 `json:"window_total,omitempty"`
}

type alertState struct {
	firing    bool
	since     time.Time
	value     float64
	winTotal  float64
	evaluated bool
}

// Evaluator runs a rule set against a DB and keeps firing/resolved state.
// Wire it to a Sampler via OnTick(e.Evaluate) so it judges each tick's
// fresh samples; transitions invoke the optional callback (ccmserve logs
// them and mirrors them into the /events ring).
type Evaluator struct {
	db           *DB
	rules        []Rule
	onTransition func(rule Rule, firing bool, measured float64)

	mu     sync.Mutex
	states []alertState
}

// NewEvaluator returns an evaluator over db. The rules must already be
// validated (ParseRules does; hand-built rule sets should call Validate).
func NewEvaluator(db *DB, rules []Rule, onTransition func(rule Rule, firing bool, measured float64)) *Evaluator {
	return &Evaluator{
		db:           db,
		rules:        rules,
		onTransition: onTransition,
		states:       make([]alertState, len(rules)),
	}
}

// Evaluate judges every rule against the window ending at now. Transitions
// fire the callback outside no locks other than the evaluator's own.
func (e *Evaluator) Evaluate(now time.Time) {
	type transition struct {
		rule     Rule
		firing   bool
		measured float64
	}
	var fired []transition

	e.mu.Lock()
	for i, r := range e.rules {
		st := &e.states[i]
		var firing bool
		var measured, winTotal float64
		if r.IsBurn() {
			firing, measured, winTotal = e.evalBurn(r, now)
		} else {
			firing, measured = e.evalThreshold(r, now)
		}
		if !st.evaluated || firing != st.firing {
			st.since = now
			if st.evaluated || firing {
				// Report the very first evaluation only if it fires;
				// "resolved" without ever firing is noise.
				fired = append(fired, transition{rule: r, firing: firing, measured: measured})
			}
		}
		st.evaluated = true
		st.firing = firing
		st.value = measured
		st.winTotal = winTotal
	}
	e.mu.Unlock()

	for _, t := range fired {
		if e.onTransition != nil {
			e.onTransition(t.rule, t.firing, t.measured)
		}
	}
}

// counterDelta returns the increase of a cumulative series over the window
// (now-window, now]: latest value minus the value at the window start. The
// start value is the newest sample at or before the window boundary; a
// series younger than the window anchors at its oldest sample. Counter
// resets (decreases) clamp to 0.
func counterDelta(samples []Sample, now time.Time, window time.Duration) (delta float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	cutoff := now.Add(-window).UnixMilli()
	last := samples[len(samples)-1]
	if last.T < cutoff {
		// Series went quiet before the window opened: no activity.
		return 0, true
	}
	start := samples[0]
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].T <= cutoff {
			start = samples[i]
			break
		}
	}
	d := last.V - start.V
	if d < 0 {
		d = 0
	}
	return d, true
}

func (e *Evaluator) evalBurn(r Rule, now time.Time) (firing bool, burn, winTotal float64) {
	window := r.Window()
	goodS, okG := e.db.Samples(r.Good)
	totalS, okT := e.db.Samples(r.Total)
	if !okG || !okT {
		return false, 0, 0
	}
	dGood, okG := counterDelta(goodS, now, window)
	dTotal, okT := counterDelta(totalS, now, window)
	if !okG || !okT {
		return false, 0, 0
	}
	minTotal := r.MinTotal
	if minTotal <= 0 {
		minTotal = 1
	}
	if dTotal < minTotal {
		return false, 0, dTotal
	}
	if dGood > dTotal {
		dGood = dTotal
	}
	errRate := 1 - dGood/dTotal
	budget := 1 - r.Objective
	burn = errRate / budget
	thresh := r.Burn
	if thresh <= 0 {
		thresh = 1
	}
	return burn >= thresh, burn, dTotal
}

func (e *Evaluator) evalThreshold(r Rule, now time.Time) (firing bool, mean float64) {
	samples, ok := e.db.Samples(r.Series)
	if !ok {
		return false, 0
	}
	cutoff := now.Add(-r.Window()).UnixMilli()
	var sum float64
	var n int
	for i := len(samples) - 1; i >= 0; i-- {
		if samples[i].T <= cutoff {
			break
		}
		sum += samples[i].V
		n++
	}
	if n == 0 {
		return false, 0
	}
	mean = sum / float64(n)
	if r.Op == "<=" {
		return mean <= r.Value, mean
	}
	return mean >= r.Value, mean
}

// States returns a snapshot of every rule's current state, sorted by rule
// name for stable output.
func (e *Evaluator) States() []AlertState {
	e.mu.Lock()
	out := make([]AlertState, len(e.rules))
	for i, r := range e.rules {
		st := e.states[i]
		out[i] = AlertState{
			Rule:        r.Name,
			Firing:      st.firing,
			Value:       st.value,
			WindowTotal: st.winTotal,
		}
		if !st.since.IsZero() {
			out[i].Since = st.since.UTC().Format(time.RFC3339)
		}
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// FiringCount returns how many rules are currently firing.
func (e *Evaluator) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.states {
		if st.firing {
			n++
		}
	}
	return n
}

// Register adds the alert gauge family to reg:
// netags_alert_active{rule="..."} is 1 while firing, 0 otherwise.
func (e *Evaluator) Register(reg *obs.Registry) {
	reg.VecFunc("netags_alert_active", "Whether the SLO alert rule is currently firing.", "gauge",
		[]string{"rule"}, func(emit func(v float64, values ...string)) {
			for _, st := range e.States() {
				v := 0.0
				if st.Firing {
					v = 1
				}
				emit(v, st.Rule)
			}
		})
}

// Series returns every series the rules read, in rule order.
func Series(rules []Rule) []string {
	var out []string
	for _, r := range rules {
		for _, s := range []string{r.Good, r.Total, r.Series} {
			if s != "" {
				out = append(out, s)
			}
		}
	}
	return out
}

// CheckRules rejects rules that could never see data: a series no source
// records (known reports the names that exist), or a burn rule whose good
// and total are the same series, which can never burn.
func CheckRules(rules []Rule, known func(name string) bool) error {
	for _, r := range rules {
		if r.IsBurn() && r.Good == r.Total {
			return fmt.Errorf("rule %q: good and total are both %q", r.Name, r.Good)
		}
		for _, s := range []string{r.Good, r.Total, r.Series} {
			if s != "" && !known(s) {
				return fmt.Errorf("rule %q: unknown series %q", r.Name, s)
			}
		}
	}
	return nil
}
