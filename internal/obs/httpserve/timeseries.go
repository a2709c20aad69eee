package httpserve

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"netags/internal/obs/timeseries"
)

// handleTimeseries answers GET /api/v1/timeseries. Parameters:
//
//	series  comma-separated series names; empty means every series
//	since   trailing window as a Go duration ("90s") or an absolute
//	        RFC3339 timestamp; empty means everything retained
//	step    downsampling window as a Go duration; empty means the DB's
//	        native resolution (no folding beyond alignment)
//
// The response maps each requested series to its step-aligned points:
//
//	{"resolution_ms":1000,"step_ms":5000,"series":{"name":[{"t":..,"v":..,"n":..},...]}}
//
// Unknown series come back as absent keys rather than errors, so dashboards
// can poll a fixed list while the daemon warms up.
func handleTimeseries(w http.ResponseWriter, r *http.Request, db *timeseries.DB) {
	q := r.URL.Query()

	var since time.Time
	if s := q.Get("since"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			if d < 0 {
				d = -d
			}
			since = time.Now().Add(-d)
		} else if ts, err := time.Parse(time.RFC3339, s); err == nil {
			since = ts
		} else {
			http.Error(w, "bad since parameter: want a duration (90s) or RFC3339 time", http.StatusBadRequest)
			return
		}
	}

	step := time.Duration(0)
	if s := q.Get("step"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			http.Error(w, "bad step parameter: want a positive duration", http.StatusBadRequest)
			return
		}
		step = d
	}

	var names []string
	if s := q.Get("series"); s != "" {
		for _, n := range strings.Split(s, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	} else {
		names = db.Names()
	}

	out := make(map[string][]timeseries.Point, len(names))
	for _, name := range names {
		if pts, ok := db.Query(name, since, step); ok {
			out[name] = pts
		}
	}
	effStep := step
	if effStep <= 0 {
		effStep = db.Resolution()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"resolution_ms": db.Resolution().Milliseconds(),
		"step_ms":       effStep.Milliseconds(),
		"series":        out,
	})
}
