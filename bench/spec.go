package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names, units and directions (the
// package test keeps the two in step) and adds the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the cluster sees. Every one is
// reported for every workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the traced run's attribution metrics, named after the
// repository's modules. A layer the workload does not exercise reads 0;
// README.md maps each one to the end-to-end metric and workload it
// should move and the workload where it should stay flat.
var perLayer = []metricDef{
	{"router.self_us", "us", "lower"},
	{"router.attempts_per_op", "count", "lower"},
	{"router.fabric_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.resp_kb", "KB", "lower"},
	{"engine.intern_hit_rate", "ratio", "higher"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.dedup_rate", "ratio", "higher"},
	{"cache.warm_hit_rate", "ratio", "higher"},
	{"cache.recompute_rate", "ratio", "lower"},
	{"cache.persisted", "count", "higher"},
	{"cache.persist_drops", "count", "lower"},
	{"limits.shed_rate", "ratio", "lower"},
	{"rewrite.mcr_us", "us", "lower"},
	{"rewrite.schema_mcr_us", "us", "lower"},
	{"rewrite.enumerate_cpu_us_per_miss", "us", "lower"},
	{"rewrite.buildcr_cpu_us_per_miss", "us", "lower"},
	{"rewrite.contain_cpu_us_per_miss", "us", "lower"},
	{"rewrite.chase_cpu_us_per_miss", "us", "lower"},
	{"rewrite.embeddings_per_miss", "count", "lower"},
	{"rewrite.crs_per_miss", "count", "lower"},
	{"rewrite.useful_ratio", "ratio", "higher"},
	{"tpq.parse_us", "us", "lower"},
	{"tpq.contain_ns", "ns", "lower"},
	{"plan.exec_us", "us", "lower"},
	{"plan.compile_us", "us", "lower"},
	{"plan.cache_hit_rate", "ratio", "higher"},
	{"plan.answers_per_op", "count", "higher"},
	{"plan.index_ms", "ms", "lower"},
	{"viewstore.register_us", "us", "lower"},
	{"viewstore.select_us", "us", "lower"},
	{"viewstore.candidates_per_probe", "count", "lower"},
	{"viewstore.materialize_us", "us", "lower"},
	{"xmltree.parse_us_per_kb", "us/KB", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"go.alloc_kb_per_op", "KB", "lower"},
	{"go.gc_per_kop", "1/kop", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"host.control_ns", "ns", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"loadgen.window_spread_pct", "%", "lower"},
	{"check.variant_keys", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
