package main

// metricDef declares one metric of BENCHMARK.json. Every workload reports
// every metric: a timed run the end-to-end ones, a traced run the per-layer
// ones, with 0 where a layer metric's statement class is not in the workload.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening, as a share, that is a regression
}

// endToEndDefs are what a user of asterixd sees, gated by bound.
//
// Latency is reported per statement class inside each workload as a geometric
// mean of the classes' percentiles: a class that gets twice as slow moves the
// metric by the same factor whether it costs 0.4 ms or 10 ms, where a
// percentile over the pooled statements would sit between two classes'
// distributions and jump with their proportions. The classes' own medians are
// the per-layer server.q_*_p50_ms.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rows_per_s", "1/s", "higher", 0.25},
	{"class_p50_gm_ms", "ms", "lower", 0.25},
	{"class_p90_gm_ms", "ms", "lower", 0.25},
	{"rss_bytes_per_user_byte", "ratio", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.10},
}

// perLayerDefs are single-layer numbers, named after the module they time.
var perLayerDefs = []metricDef{
	// server: the HTTP window of the traced run, seen from outside the child.
	{name: "server.q_pk_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_range_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_spatial_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_text_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_filter_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_groupby_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_join_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_topk_p50_ms", unit: "ms", better: "lower"},
	{name: "server.insert_p50_ms", unit: "ms", better: "lower"},
	{name: "server.q_range_p99_ms", unit: "ms", better: "lower"},
	{name: "server.insert_p99_ms", unit: "ms", better: "lower"},
	{name: "server.http_overhead_us", unit: "us", better: "lower"},
	{name: "server.first_byte_ms.filter", unit: "ms", better: "lower"},
	{name: "server.first_byte_ms.join", unit: "ms", better: "lower"},
	{name: "server.cpu_s_per_kop", unit: "s", better: "lower"},
	{name: "server.peak_rss_mb", unit: "MB", better: "lower"},
	// Front end, stand-alone on generated statements.
	{name: "aql.parse_query_us", unit: "us", better: "lower"},
	{name: "aql.parse_insert_us_per_record", unit: "us", better: "lower"},
	{name: "algebra.compile_us", unit: "us", better: "lower"},
	{name: "translator.jobgen_us", unit: "us", better: "lower"},
	// Shares of in-process statement wall time, from span self times.
	{name: "share.aql", unit: "ratio", better: "lower"},
	{name: "share.algebra", unit: "ratio", better: "lower"},
	{name: "share.translator", unit: "ratio", better: "lower"},
	{name: "share.hyracks", unit: "ratio", better: "lower"},
	{name: "share.adm_json", unit: "ratio", better: "lower"},
	{name: "share.expr", unit: "ratio", better: "lower"},
	{name: "share.storage", unit: "ratio", better: "lower"},
	// hyracks: JobProfile of the traced statements.
	{name: "hyracks.op_scan_ms", unit: "ms", better: "lower"},
	{name: "hyracks.op_group_ms", unit: "ms", better: "lower"},
	{name: "hyracks.op_join_ms", unit: "ms", better: "lower"},
	{name: "hyracks.op_sort_ms", unit: "ms", better: "lower"},
	{name: "hyracks.first_tuple_ms.join", unit: "ms", better: "lower"},
	{name: "hyracks.rows_examined_per_result.pk", unit: "count", better: "lower"},
	{name: "hyracks.rows_examined_per_result.range", unit: "count", better: "lower"},
	{name: "hyracks.rows_examined_per_result.filter", unit: "count", better: "lower"},
	{name: "hyracks.spill_join_ms", unit: "ms", better: "lower"},
	{name: "hyracks.spill_group_ms", unit: "ms", better: "lower"},
	{name: "hyracks.spill_sort_ms", unit: "ms", better: "lower"},
	{name: "runfile.spill_bytes", unit: "bytes", better: "lower"},
	{name: "runfile.spill_runs", unit: "count", better: "lower"},
	{name: "runfile.write_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "runfile.read_ns_per_tuple", unit: "ns", better: "lower"},
	// expr and adm, stand-alone on generated records.
	{name: "expr.eval_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "expr.insert_body_us_per_record", unit: "us", better: "lower"},
	{name: "adm.encode_ns_per_record", unit: "ns", better: "lower"},
	{name: "adm.decode_lazy_ns_per_record", unit: "ns", better: "lower"},
	{name: "adm.decode_eager_ns_per_record", unit: "ns", better: "lower"},
	{name: "adm.lazy_get_ns", unit: "ns", better: "lower"},
	{name: "adm.json_ns_per_row", unit: "ns", better: "lower"},
	// storage: public Dataset calls in-process, then the child's /metrics.
	{name: "storage.scan_ns_per_record", unit: "ns", better: "lower"},
	{name: "storage.lookup_pk_us", unit: "us", better: "lower"},
	{name: "storage.range_search_us", unit: "us", better: "lower"},
	{name: "storage.rtree_search_us", unit: "us", better: "lower"},
	{name: "storage.inverted_search_us", unit: "us", better: "lower"},
	{name: "storage.insert_batch_us_per_record", unit: "us", better: "lower"},
	{name: "storage.open_ms", unit: "ms", better: "lower"},
	{name: "storage.recover_ms", unit: "ms", better: "lower"},
	{name: "storage.recover_records", unit: "count", better: "lower"},
	{name: "storage.bg_flushes", unit: "count", better: "lower"},
	{name: "storage.bg_merges", unit: "count", better: "lower"},
	{name: "storage.checkpoints", unit: "count", better: "lower"},
	{name: "storage.components_primary", unit: "count", better: "lower"},
	{name: "storage.components_secondary", unit: "count", better: "lower"},
	{name: "storage.wal_bytes", unit: "bytes", better: "lower"},
	// lsm and txn, stand-alone and single-threaded.
	{name: "lsm.insert_ns", unit: "ns", better: "lower"},
	{name: "lsm.get_ns_c1", unit: "ns", better: "lower"},
	{name: "lsm.get_ns_c8", unit: "ns", better: "lower"},
	{name: "lsm.get_miss_ns_c8", unit: "ns", better: "lower"},
	{name: "lsm.range_ns_per_entry_c1", unit: "ns", better: "lower"},
	{name: "lsm.range_ns_per_entry_c8", unit: "ns", better: "lower"},
	{name: "lsm.flush_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "lsm.merge_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "lsm.open_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "lsm.write_amp", unit: "ratio", better: "lower"},
	{name: "lsm.resident_bytes_per_disk_byte", unit: "ratio", better: "lower"},
	{name: "txn.append_group_us", unit: "us", better: "lower"},
	{name: "txn.commit_nosync_us", unit: "us", better: "lower"},
	{name: "txn.commit_sync_us", unit: "us", better: "lower"},
	{name: "txn.commit_sync_2w_us", unit: "us", better: "lower"},
	{name: "txn.replay_ms_per_mb", unit: "ms/MB", better: "lower"},
	{name: "txn.log_bytes_per_user_byte", unit: "ratio", better: "lower"},
	// trace: how much of a statement the spans explain, and what they cost.
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
