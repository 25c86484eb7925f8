package main

// metricDef names one metric. The two lists below are the single source of
// the names: BENCHMARK.json and README.md repeat them and a test keeps the
// three in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. The latency metrics are taken over the
// workload's leading op class: inserts on ingest, queries everywhere else.
// failed_share is not among them because it is 0 on a healthy run and a bound
// is a share of the parent's median; the result's attempted and failed counts
// carry it instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"mem_after_warm_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced pass.
// The prefix is the module directory under internal/ that owns the number
// (client. also holds the diagnostics that are never gated). A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// Time, by differential replay with one client.
	{"client.self_ms", "ms", "lower"},
	{"client.response_kb", "KB", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.objects_hydrated_per_op", "count", "lower"},
	{"imaging.decode_us", "us", "lower"},
	{"query.parse_us", "us", "lower"},
	{"core.facade_ms", "ms", "lower"},
	{"rbm.query_ms", "ms", "lower"},
	{"bwm.query_ms", "ms", "lower"},
	{"stree.query_ms", "ms", "lower"},
	{"bwm.time_vs_rbm", "ratio", "lower"},
	{"stree.build_ms", "ms", "lower"},
	{"rules.walk_us", "us", "lower"},
	{"core.knn_scan_ms", "ms", "lower"},
	{"core.knn_indexed_ms", "ms", "lower"},
	{"cluster.coordinator_self_ms", "ms", "lower"},
	{"cluster.write_ack_ms", "ms", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	// Counts per op, read from ?trace=1 / WithTrace.
	{"core.candidates_examined_per_op", "count", "lower"},
	{"core.edited_walked_per_op", "count", "lower"},
	{"core.images_returned_per_op", "count", "lower"},
	{"rules.ops_evaluated_per_op", "count", "lower"},
	{"bwm.cluster_hits_per_op", "count", "higher"},
	{"bwm.fastpath_admitted_per_op", "count", "higher"},
	{"bwm.unclassified_walked_per_op", "count", "lower"},
	{"stree.nodes_visited_per_op", "count", "lower"},
	{"stree.subtree_admitted_per_op", "count", "higher"},
	{"stree.leaf_checks_per_op", "count", "lower"},
	{"exec.workers", "count", "higher"},
	{"exec.parallel_tasks_per_op", "count", "lower"},
	{"exec.parallel_steals_per_op", "count", "lower"},
	{"core.knn_edited_pruned_share", "ratio", "higher"},
	{"core.knn_instantiated_per_op", "count", "lower"},
	{"segment.sketch_checks_per_op", "count", "lower"},
	{"segment.sketch_skips_per_op", "count", "higher"},
	{"rules.answer_precision", "ratio", "higher"},
	// Write path, from WALStats / SegmentStats deltas and the directory.
	{"wal.fsyncs_per_write", "ratio", "lower"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.checkpoints", "count", "higher"},
	{"segment.seals", "count", "higher"},
	{"segment.compactions", "count", "lower"},
	{"segment.backlog_end", "count", "lower"},
	{"segment.rate_limit_stall_ms", "ms", "lower"},
	{"store.disk_bytes_per_user_byte", "ratio", "lower"},
	{"store.reopen_s", "s", "lower"},
	{"store.replayed_records", "count", "lower"},
	{"store.check_order_reports", "count", "lower"},
	// Cluster, from the coordinator's trace and the replica sets.
	{"cluster.shards_queried_per_op", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.partial_results", "count", "lower"},
	{"cluster.duplicates_merged_per_op", "count", "lower"},
	{"cluster.follower_lag_lsn_end", "count", "lower"},
	// Diagnostics: too noisy to gate, printed for the reader. The write
	// percentiles are where cluster_mixed's inserts show.
	{"client.write_p50_ms", "ms", "lower"},
	{"client.write_p90_ms", "ms", "lower"},
	{"client.read_p99_ms", "ms", "lower"},
	{"client.write_p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
}

// metricValue is one reported number in the contract's output form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics renders values for exactly the metrics in defs; a metric
// the run did not produce reads 0.
func contractMetrics(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
