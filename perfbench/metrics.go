package main

// metricSpec names one reported metric. Every workload reports every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run); BENCHMARK.json lists the same names, units and directions.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ack_p50_ms", "ms", "lower"},
	{"ack_p99_ms", "ms", "lower"},
	{"ingest_ops_per_s", "1/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"heap_bytes_per_edge", "B", "lower"},
	{"analytics_meps", "Medges/s", "higher"},
	{"batch_p50_ms", "ms", "lower"},
	{"batch_p90_ms", "ms", "lower"},
	{"reopen_s", "s", "lower"},
	{"catchup_s", "s", "lower"},
}

var perLayer = []metricSpec{
	{"failed_frac", "frac", "lower"},

	{"facade.push_ms_total", "ms", "lower"},
	{"facade.flush_ms_total", "ms", "lower"},
	{"facade.checkpoint_count", "count", "lower"},
	{"facade.checkpoint_ms_p50", "ms", "lower"},
	{"facade.checkpoint_ms_max", "ms", "lower"},

	{"ingest.apply_ms_total", "ms", "lower"},
	{"ingest.queue_wait_ms_total", "ms", "lower"},
	{"ingest.flushes", "count", "lower"},
	{"ingest.subbatch_ops_mean", "count", "higher"},
	{"ingest.queue_depth_max", "count", "lower"},
	{"ingest.retries", "count", "lower"},
	{"ingest.rejected", "count", "lower"},
	{"ingest.batch_repeat_frac", "frac", "lower"},

	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.fsync_us_p99", "us", "lower"},
	{"wal.fsync_ms_total", "ms", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.segments_created", "count", "lower"},
	{"wal.replay_s", "s", "lower"},
	{"wal.replay_ops_per_s", "1/s", "higher"},

	{"core.apply_ops_per_s", "1/s", "higher"},
	{"core.write_amp_x", "x", "lower"},
	{"core.cells_per_op", "count", "lower"},
	{"core.workblocks_per_op", "count", "lower"},
	{"core.promotions", "count", "lower"},
	{"core.demotions", "count", "lower"},
	{"core.snapshot_write_mb_per_s", "MB/s", "higher"},
	{"core.find_ns_quiet", "ns", "lower"},
	{"core.insert_meps", "Medges/s", "higher"},
	{"core.snapshot_load_s", "s", "lower"},

	{"engine.run_ms_total", "ms", "lower"},
	{"engine.process_ms", "ms", "lower"},
	{"engine.merge_ms", "ms", "lower"},
	{"engine.apply_ms", "ms", "lower"},
	{"engine.edges_processed", "count", "lower"},
	{"engine.edges_per_s", "1/s", "higher"},
	{"engine.full_iters", "count", "lower"},
	{"engine.incr_iters", "count", "lower"},
	{"engine.bfs.run_ms", "ms", "lower"},
	{"engine.cc.run_ms", "ms", "lower"},

	{"replication.bytes_shipped", "B", "lower"},
	{"replication.frames", "count", "lower"},
	{"replication.snapshots_installed", "count", "lower"},
	{"replication.ops_applied", "count", "lower"},
	{"replication.apply_ops_per_s", "1/s", "higher"},
	{"replication.duplicates", "count", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.reconcile_ack_err_pct", "%", "lower"},
	{"trace.reconcile_reopen_err_pct", "%", "lower"},
}
