package cluster

import "netags/internal/obs/timeseries"

// DefaultSLORules returns the router's alerting policy, over the series
// its registry samples:
//
//   - cluster_breaker_open: any backend breaker not closed. A threshold
//     rule, not a burn rule — one tripped shard is immediately actionable.
//   - admit_shed_burn: the admitted/submitted ratio burning through a 90%
//     admission objective — sustained shedding, not a momentary spike.
//   - forward_error_burn: the share of received requests some backend
//     answered burning through 99% — the cluster is failing requests
//     faster than the error budget allows.
func DefaultSLORules() []timeseries.Rule {
	return []timeseries.Rule{
		{Name: "cluster_breaker_open", WindowS: 10, Series: "cluster_breakers_open", Op: ">=", Value: 0.5},
		{
			Name: "admit_shed_burn", WindowS: 60,
			Good: "cluster_submits_admitted_total", Total: "cluster_submits_total",
			Objective: 0.90, Burn: 2, MinTotal: 5,
		},
		{
			Name: "forward_error_burn", WindowS: 60,
			Good: "cluster_forwarded_total", Total: "cluster_requests_total",
			Objective: 0.99, Burn: 2, MinTotal: 10,
		},
	}
}
