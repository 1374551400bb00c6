package main

// metricDef names a metric as BENCHMARK.json does (a test keeps the two in
// step); the regression bounds live only in BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the runtime would see, every one
// reported on every workload by the untraced run. fail_frac is not in the
// list because it is 0 at this commit and a bound is a share of the
// parent's median: it is printed as a note and carried by the result
// line's attempted/failed counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"update_mops", "Mop/s", "higher"},
	{"gather_mops", "Mop/s", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"loaded_p99_us", "us", "lower"},
	{"step_us", "us", "lower"},
}

// perLayer are the traced run's metrics: the layer ladder (the same probes
// whatever the workload) and the counter ratios of the workload's own
// timed window.
var perLayer = []metricDef{
	{"fabric.put8_ns", "ns", "lower"},
	{"fabric.get8_ns", "ns", "lower"},
	{"fabric.atomic_add_ns", "ns", "lower"},
	{"fabric.msgs_per_op", "1/op", "lower"},
	{"fabric.bytes_per_op", "B/op", "lower"},
	{"memregion.put8_ns", "ns", "lower"},
	{"memregion.get8_ns", "ns", "lower"},
	{"slab.getput_ns", "ns", "lower"},
	{"serde.encode1k_ns", "ns", "lower"},
	{"serde.decode1k_ns", "ns", "lower"},
	{"scheduler.submit_run_ns", "ns", "lower"},
	{"scheduler.wake_us", "us", "lower"},
	{"scheduler.spawn_await_us", "us", "lower"},
	{"scheduler.parks_per_kop", "1/kop", "lower"},
	{"scheduler.steals_per_kop", "1/kop", "lower"},
	{"scheduler.busy_frac", "ratio", "higher"},
	{"scheduler.metg50_us", "us", "lower"},
	{"scheduler.coarse_eff_pct", "%", "higher"},
	{"runtime.am.issue_ns", "ns", "lower"},
	{"runtime.am.stream_kops", "kop/s", "higher"},
	{"runtime.am.rtt_idle_p50_us", "us", "lower"},
	{"runtime.am.rtt_idle_p99_us", "us", "lower"},
	{"runtime.am.rtt_piped_p50_us", "us", "lower"},
	{"runtime.barrier_us", "us", "lower"},
	{"runtime.am.envs_per_batch", "ratio", "higher"},
	{"runtime.am.flush_timer_share", "ratio", "lower"},
	{"runtime.am.flush_size_share", "ratio", "higher"},
	{"runtime.am.flush_drain_share", "ratio", "lower"},
	{"runtime.wire.retx_share", "ratio", "lower"},
	{"runtime.wire.acks_per_batch", "ratio", "lower"},
	{"runtime.wire.parked_per_kbatch", "1/kbatch", "lower"},
	{"runtime.wire.dup_dropped", "count", "lower"},
	{"runtime.wire.ooo_held", "count", "lower"},
	{"runtime.wire.timeouts", "count", "lower"},
	{"array.add_issue_ns", "ns", "lower"},
	{"array.fadd_rtt_idle_p50_us", "us", "lower"},
	{"array.load_rtt_idle_p50_us", "us", "lower"},
	{"array.tax_over_am_us", "us", "lower"},
	{"array.ops_per_agg_batch", "ratio", "higher"},
	{"array.agg_flush_size_share", "ratio", "higher"},
	{"array.agg_flush_ops_share", "ratio", "higher"},
	{"array.agg_flush_drain_share", "ratio", "lower"},
	{"darc.new_drop_us", "us", "lower"},
	{"kv.get_rtt_idle_p50_us", "us", "lower"},
	{"kv.put_rtt_idle_p50_us", "us", "lower"},
	{"kv.fadd_rtt_idle_p50_us", "us", "lower"},
	{"kv.tax_over_array_us", "us", "lower"},
	{"kv.gen_lag_p99_us", "us", "lower"},
	{"kv.lat_p999_us", "us", "lower"},
	{"bale.exstack_update_mops", "Mop/s", "higher"},
	{"trace_overhead_pct", "%", "lower"},
}
