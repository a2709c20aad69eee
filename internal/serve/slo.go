// SLO histograms for the serving layer. Every latency an operator would
// page on is recorded into internal/obs's power-of-two Hist (bucket b
// counts values in [2^(b−1), 2^b) — observations here are milliseconds, so
// the buckets run 0, 1 ms, 2 ms, 4 ms, … ~70 min) through registry
// handles resolved once at construction:
//
//	netags_serve_queue_wait_ms{class=...}   submission → worker dequeue
//	netags_serve_exec_ms                    worker dequeue → terminal state
//	netags_serve_e2e_ms                     submission → terminal state
//	netags_serve_point_ms                   one grid point's compute time
//	netags_http_request_ms{route=,status=}  HTTP handler latency (middleware)
//
// Observe is a mutex-guarded array increment — no allocation — so the
// per-point hot path can record unconditionally. Burn-rate rules window
// the sampled _count and _le_<2^k−1> series of these histograms (see
// obs.Registry for the naming rule).
package serve

import (
	"strconv"
	"time"

	"netags/internal/obs"
	"netags/internal/obs/timeseries"
)

// sloHists holds the serving-layer latency histogram handles.
type sloHists struct {
	queueWait map[Priority]*obs.Histogram
	exec      *obs.Histogram
	e2e       *obs.Histogram
	point     *obs.Histogram
}

func newSLOHists(reg *obs.Registry) *sloHists {
	qw := reg.HistogramVec("netags_serve_queue_wait_ms",
		"Milliseconds a job waited between submission and worker dequeue, per priority class.", "class")
	return &sloHists{
		queueWait: map[Priority]*obs.Histogram{
			PriorityInteractive: qw.With(string(PriorityInteractive)),
			PriorityBulk:        qw.With(string(PriorityBulk)),
		},
		exec:  reg.Histogram("netags_serve_exec_ms", "Milliseconds a job spent executing (worker dequeue to terminal state)."),
		e2e:   reg.Histogram("netags_serve_e2e_ms", "End-to-end milliseconds from submission to terminal state."),
		point: reg.Histogram("netags_serve_point_ms", "Milliseconds of compute per completed sweep point."),
	}
}

func ms(d time.Duration) int64 { return int64(d / time.Millisecond) }

func (s *sloHists) observeQueueWait(class Priority, d time.Duration) {
	if h, ok := s.queueWait[class.normalize()]; ok {
		h.Observe(ms(d))
	}
}

// httpHists records per-route/per-status handler latency, fed by the
// middleware in middleware.go, plus the request and non-5xx totals the
// HTTP burn-rate rule windows. Route label cardinality is bounded by the
// mux's registered patterns; unmatched requests record as route "other".
type httpHists struct {
	latency  *obs.Vec[obs.Histogram]
	requests *obs.Counter
	good     *obs.Counter
}

func newHTTPHists(reg *obs.Registry) *httpHists {
	return &httpHists{
		latency: reg.HistogramVec("netags_http_request_ms",
			"HTTP handler latency in milliseconds, by mux route and status code.", "route", "status"),
		requests: reg.Counter("netags_http_requests_total", "HTTP requests served."),
		good:     reg.Counter("netags_http_requests_good_total", "HTTP requests answered without a 5xx status."),
	}
}

// statusLabels holds the status label of every valid HTTP code, so
// recording a request never formats one.
var statusLabels = func() (out [600]string) {
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return
}()

func (h *httpHists) observe(route string, status int, d time.Duration) {
	if route == "" {
		route = "other"
	}
	label := "other"
	if status >= 0 && status < len(statusLabels) {
		label = statusLabels[status]
	}
	h.latency.With(route, label).Observe(ms(d))
	h.requests.Add(1)
	if status < 500 {
		h.good.Add(1)
	}
}

// DefaultSLORules is the rule set ccmserve installs when -slo-rules is not
// given: burn-rate rules over the latency and error SLOs above plus a
// queue saturation threshold. Windows are short enough to flip within a
// load test yet long enough to ignore a single slow sweep; see DESIGN.md
// "SLO burn-rate alerting" for how the numbers were picked.
func DefaultSLORules() []timeseries.Rule {
	return []timeseries.Rule{
		{
			// 90% of jobs end-to-end under ~4s; fire at 2x budget burn.
			Name: "job_e2e_burn", WindowS: 120,
			Good: "serve_e2e_ms_le_4095", Total: "serve_e2e_ms_count",
			Objective: 0.90, Burn: 2, MinTotal: 5,
		},
		{
			// 95% of sweep points compute under ~1s.
			Name: "point_latency_burn", WindowS: 120,
			Good: "serve_point_ms_le_1023", Total: "serve_point_ms_count",
			Objective: 0.95, Burn: 2, MinTotal: 20,
		},
		{
			// 99% of HTTP requests do not 5xx.
			Name: "http_error_burn", WindowS: 120,
			Good: "http_requests_good_total", Total: "http_requests_total",
			Objective: 0.99, Burn: 2, MinTotal: 10,
		},
		{
			// Sustained queue occupancy >= 90% of capacity means backpressure
			// rejections are imminent.
			Name: "queue_saturation", WindowS: 60,
			Series: "serve_queue_fill", Op: ">=", Value: 0.9,
		},
	}
}
