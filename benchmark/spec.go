package main

// The names, units, directions and bounds below are BENCHMARK.json's; a test
// keeps the two in step. Every untraced run prints every end-to-end metric
// and every traced run every per-layer metric, whatever the workload: a
// per-layer metric of a layer the workload does not exercise reads 0.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"plan-4x500", "provider path: logs of 4 x 500 tenants to deployment plans and one re-consolidation each; epoch, grouping and advisor do all the work, the runtime layers none"},
	{"replay-7d", "replay throughput bounds every experiment: 200 tenants x 7 days through sim, mppdb, router, monitor and telemetry; grouping and service do nothing"},
	{"serve-single", "tenant write path, one POST /v1/queries per logged query: the service front end is most of the cost per query, the runtime plane the minority"},
	{"serve-mixed", "same queries as 64-query submit-batch posts with scrape and records reads between them: front end amortised, runtime dominates, reads share its locks"},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"sim_quality", "share", "higher", 0.25},
}

var perLayer = []metricSpec{
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},

	// plan-4x500
	{Name: "advisor.plan_s", Unit: "s", Better: "lower"},
	{Name: "advisor.replan_s", Unit: "s", Better: "lower"},
	{Name: "advisor.self_s", Unit: "s", Better: "lower"},
	{Name: "advisor.replan_repacked", Unit: "count", Better: "lower"},
	{Name: "advisor.replan_kept_groups", Unit: "count", Better: "higher"},
	{Name: "workload.library_s", Unit: "s", Better: "lower"},
	{Name: "workload.compose_s", Unit: "s", Better: "lower"},
	{Name: "epoch.quantize_s", Unit: "s", Better: "lower"},
	{Name: "epoch.spans_total", Unit: "count", Better: "lower"},
	{Name: "epoch.ns_per_add", Unit: "ns", Better: "lower"},
	{Name: "epoch.ns_per_preview", Unit: "ns", Better: "lower"},
	{Name: "grouping.solve_s", Unit: "s", Better: "lower"},
	{Name: "grouping.verify_s", Unit: "s", Better: "lower"},
	{Name: "grouping.groups", Unit: "count", Better: "lower"},
	{Name: "grouping.mean_group_size", Unit: "count", Better: "higher"},
	{Name: "plan.nodes", Unit: "count", Better: "lower"},
	{Name: "plan.allocs", Unit: "count", Better: "lower"},
	{Name: "plan.bytes", Unit: "B", Better: "lower"},

	// replay-7d
	{Name: "workload.events", Unit: "count", Better: "lower"},
	{Name: "workload.materialize_s", Unit: "s", Better: "lower"},
	{Name: "master.deploy_s", Unit: "s", Better: "lower"},
	{Name: "replay.pass_s", Unit: "s", Better: "lower"},
	{Name: "replay.self_s", Unit: "s", Better: "lower"},
	{Name: "replay.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "replay.bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "replay.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.steps", Unit: "count", Better: "lower"},
	{Name: "sim.steps_per_query", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "mppdb.ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "router.ns_per_submit", Unit: "ns", Better: "lower"},
	{Name: "router.overflow_share", Unit: "share", Better: "lower"},
	{Name: "monitor.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "telemetry.ns_per_span", Unit: "ns", Better: "lower"},
	{Name: "telemetry.spans_dropped", Unit: "count", Better: "lower"},

	// replay-7d and serve-mixed
	{Name: "runtime.ns_per_query_batch", Unit: "ns", Better: "lower"},

	// serve-single
	{Name: "harness.ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "runtime.ns_per_query_single", Unit: "ns", Better: "lower"},
	{Name: "service.ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "service.self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "service.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "service.bytes_per_request", Unit: "B", Better: "lower"},
	{Name: "service.response_bytes", Unit: "B", Better: "lower"},

	// serve-single and serve-mixed
	{Name: "service.submit_tail_us", Unit: "us", Better: "lower"},
	{Name: "service.gc_pause_ms", Unit: "ms", Better: "lower"},

	// serve-mixed
	{Name: "service.batch_self_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "service.batch_allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "service.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "service.slo_ms", Unit: "ms", Better: "lower"},
	{Name: "service.metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "service.metrics_self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.groups_ms", Unit: "ms", Better: "lower"},
	{Name: "service.records_ms", Unit: "ms", Better: "lower"},
	{Name: "service.records_bytes", Unit: "B", Better: "lower"},
	{Name: "telemetry.prometheus_ms", Unit: "ms", Better: "lower"},
}

func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}
