package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at
// the repository root carries the same names, units and directions (a
// test keeps the two in step) and, alone, the regression bound of each
// end-to-end metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, measured with tracing
// off. README.md defines each.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"lat_gm_p50_ms", "ms", "lower"},
	{"lat_gm_tail_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"mallocs_per_op", "count", "lower"},
	{"sim_ms_per_op", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"store_bytes_per_triple", "B", "lower"},
}

// perLayer is what the traced run reports, one group per module.
var perLayer = []metricDef{
	{"sparql.parse_us", "us", "lower"},
	{"sparql.parse_mallocs", "count", "lower"},

	{"plan.cold_us", "us", "lower"},
	{"plan.cold_mallocs", "count", "lower"},
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"plan.cache_evictions_per_kop", "count", "lower"},
	{"plan.est_error_gm", "ratio", "lower"},

	{"core.exec_us", "us", "lower"},
	{"core.scan_ns_per_row", "ns", "lower"},
	{"core.rows_examined_per_result", "ratio", "lower"},
	{"core.intermediate_rows_per_op", "count", "lower"},
	{"core.sim_scan_ms", "ms", "lower"},
	{"core.sim_join_ms", "ms", "lower"},
	{"core.sim_other_ms", "ms", "lower"},
	{"core.net_kb_priced_per_op", "KB", "lower"},
	{"core.disk_kb_priced_per_op", "KB", "lower"},
	{"core.peak_mem_mb", "MB", "lower"},
	{"core.replans_per_kop", "count", "lower"},

	{"stream.exec_us", "us", "lower"},
	{"stream.first_row_sim_ms", "ms", "lower"},
	{"stream.peak_mem_mb", "MB", "lower"},
	{"stream.streamed_ratio", "ratio", "higher"},

	{"engine.join_kernel_ns_per_row", "ns", "lower"},
	{"engine.join_kernel_b_per_row", "B", "lower"},
	{"engine.probe_ns_per_row", "ns", "lower"},
	{"engine.distinct_ns_per_row", "ns", "lower"},
	{"engine.stream_probe_ns_per_row", "ns", "lower"},

	{"columnar.encode_ns_per_row", "ns", "lower"},
	{"columnar.decode_ns_per_row", "ns", "lower"},
	{"columnar.bytes_per_row", "B", "lower"},

	{"serve.roundtrip_us", "us", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"serve.resp_kb_per_op", "KB", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},

	{"shard.exchanges_per_op", "count", "lower"},
	{"shard.wire_kb_sent_per_op", "KB", "lower"},
	{"shard.wire_kb_recv_per_op", "KB", "lower"},
	{"shard.rtt_p50_us", "us", "lower"},
	{"shard.rtt_p99_us", "us", "lower"},
	{"shard.slowdown_x", "ratio", "lower"},

	{"wire.encode_ns_per_row", "ns", "lower"},
	{"wire.decode_ns_per_row", "ns", "lower"},
	{"wire.frame_us_per_mb", "us", "lower"},

	{"rdf.ntriples_parse_us_per_ktriple", "us", "lower"},
	{"rdf.dict_encode_us_per_ktriple", "us", "lower"},
	{"stats.collect_ms", "ms", "lower"},
	{"load.tables_ms", "ms", "lower"},
	{"load.triples_per_s", "1/s", "higher"},
	{"load.alloc_mb", "MB", "lower"},
	{"load.sim_s", "s", "lower"},

	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.gc_per_s", "1/s", "lower"},
	{"process.gc_pause_ms_per_s", "ms", "lower"},
	{"process.rss_peak_mb", "MB", "lower"},
	{"client.lat_p99_ms", "ms", "lower"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.err_ratio", "ratio", "lower"},
	{"harness.overhead_us_per_op", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricValue is one printed measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map from values, in the order and with the
// units of defs; a value missing from values is a bug in the harness.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("benchmark: metric " + d.name + " was not measured")
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}
