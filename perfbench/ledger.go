package main

import (
	"math"
	"strconv"
	"strings"

	"krisp/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run: what running the workload
// costs the host. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// registryCounts maps ledger counts to the registry series they sum: every
// label set of the series (one per GPU, model or node) is added up.
var registryCounts = []struct{ metric, series string }{
	{"gpu.launches", "krisp_gpu_launches_total"},
	{"hsa.dispatches", "krisp_hsa_dispatches_total"},
	{"hsa.barriers", "krisp_hsa_barriers_total"},
	{"hsa.ioctls", "krisp_hsa_ioctls_total"},
	{"core.rightsize_decisions", "krisp_core_rightsize_decisions_total"},
	{"core.retries", "krisp_core_kernel_retries_total"},
	{"server.batches", "krisp_server_batches_total"},
	{"server.requests", "krisp_server_requests_total"},
	{"cluster.routed", "krisp_fleet_routed_total"},
	{"cluster.migrations", "krisp_fleet_migrations_total"},
	{"cluster.resizes", "krisp_fleet_resizes_total"},
	{"cluster.drains", "krisp_fleet_drains_total"},
	{"gateway.admitted", "krisp_gateway_admitted_total"},
	{"gateway.hedges", "krisp_gateway_hedges_total"},
	{"gateway.hedge_wins", "krisp_gateway_hedge_wins_total"},
	{"gateway.budget_denied", "krisp_gateway_budget_denied_total"},
	{"gateway.retries", "krisp_gateway_retries_total"},
}

// dispatchWaitSeries is the histogram of virtual time a packet waited in
// an HSA queue before the packet processor took it.
const dispatchWaitSeries = "krisp_hsa_dispatch_wait_us"

// scrape reads the ledger's counts from a registry. The dispatch-wait
// quantiles are histogram bucket upper bounds, not interpolated values.
func scrape(reg *telemetry.Registry) map[string]float64 {
	sums := make(map[string]float64)
	var waitLE []float64
	var waitCum []uint64
	for _, s := range reg.Snapshot() {
		base, _, _ := strings.Cut(s.Name, "{")
		switch s.Type {
		case "counter":
			sums[base] += s.Value
		case "histogram":
			if base != dispatchWaitSeries {
				continue
			}
			if waitLE == nil {
				for _, b := range s.Buckets {
					le, err := strconv.ParseFloat(b.LE, 64)
					if err != nil {
						le = math.Inf(1)
					}
					waitLE = append(waitLE, le)
				}
				waitCum = make([]uint64, len(waitLE))
			}
			for i, b := range s.Buckets {
				if i < len(waitCum) {
					waitCum[i] += b.Count
				}
			}
		}
	}
	out := make(map[string]float64, len(registryCounts)+2)
	for _, rc := range registryCounts {
		out[rc.metric] = sums[rc.series]
	}
	out["hsa.dispatch_wait_p50_us"] = bucketQuantile(waitLE, waitCum, 0.50)
	out["hsa.dispatch_wait_p99_us"] = bucketQuantile(waitLE, waitCum, 0.99)
	return out
}

// bucketQuantile returns the upper bound of the first cumulative bucket
// holding at least q of the observations; 0 without observations. An
// answer in the overflow bucket is reported as the last finite bound.
func bucketQuantile(le []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	want := q * float64(cum[len(cum)-1])
	for i, c := range cum {
		if float64(c) >= want {
			if math.IsInf(le[i], 1) && i > 0 {
				return le[i-1]
			}
			return le[i]
		}
	}
	return le[len(le)-1]
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
