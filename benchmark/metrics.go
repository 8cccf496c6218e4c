package main

// metricDef declares one metric: BENCHMARK.json lists exactly these, and the
// package test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Units name the clock: "s", "ms", "us" and "ns" are host time, "sim_s" is
// the modelled GPU clock.
//
// Every run draws its inputs from its own seed, so a bound has to clear the
// seed-to-seed spread as well as the host's: each is at least three times
// the widest spread (distance between quartiles over the median) measured
// over two sets of runs on the 2-core pipeline host — see AGREE.txt.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"requests_per_s", "req/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_request", "count", "lower", 0.02},
	{"alloc_kb_per_request", "kB", "lower", 0.03},
	{"goodput_tok_s", "tok/sim_s", "higher", 0.07},
	{"sla_attainment", "share", "higher", 0.06},
	{"ttft_p99_s", "sim_s", "lower", 0.20},
	{"prefill_tokens_per_request", "tokens", "lower", 0.10},
}

// perLayer lists every per-layer metric; a workload that bypasses a layer
// reports its metrics as zero.
var perLayer = []metricDef{
	{name: "workload.next_s", unit: "s", better: "lower"},
	{name: "workload.next_calls", unit: "count", better: "lower"},

	{name: "cluster.serve_s", unit: "s", better: "lower"},
	{name: "cluster.events", unit: "count", better: "lower"},
	{name: "cluster.events_per_request", unit: "count", better: "lower"},
	{name: "cluster.route_s", unit: "s", better: "lower"},
	{name: "cluster.route_calls", unit: "count", better: "lower"},
	{name: "cluster.other_s", unit: "s", better: "lower"},
	{name: "cluster.held", unit: "count", better: "lower"},
	{name: "cluster.shed_share", unit: "share", better: "lower"},
	{name: "cluster.hold_wait_sim_s_p99", unit: "sim_s", better: "lower"},
	{name: "cluster.scale_outs", unit: "count", better: "lower"},
	{name: "cluster.scale_ins", unit: "count", better: "lower"},
	{name: "cluster.replica_seconds", unit: "sim_s", better: "lower"},
	{name: "cluster.cost_seconds", unit: "sim_s", better: "lower"},
	{name: "cluster.imbalance", unit: "share", better: "lower"},
	{name: "cluster.max_sla_phase_rate_req_s", unit: "req/sim_s", better: "higher"},
	{name: "cluster.batched1_requests_per_s", unit: "req/s", better: "higher"},
	{name: "cluster.batched2_requests_per_s", unit: "req/s", better: "higher"},
	{name: "cluster.batch_width_mean", unit: "count", better: "higher"},

	{name: "core.admit_s", unit: "s", better: "lower"},
	{name: "core.admit_calls", unit: "count", better: "lower"},
	{name: "core.admit_ns_per_call", unit: "ns", better: "lower"},
	{name: "core.admitted_per_call", unit: "count", better: "higher"},
	{name: "core.queue_len_mean", unit: "count", better: "lower"},
	{name: "core.running_mean", unit: "count", better: "higher"},
	{name: "core.evicted_share", unit: "share", better: "lower"},
	{name: "core.evictions_per_kreq", unit: "count", better: "lower"},
	{name: "core.admit_useful_share", unit: "share", better: "higher"},
	{name: "core.mstar_mean_share", unit: "share", better: "higher"},

	{name: "engine.step_s", unit: "s", better: "lower"},
	{name: "engine.steps", unit: "count", better: "lower"},
	{name: "engine.step_ns", unit: "ns", better: "lower"},
	{name: "engine.self_s", unit: "s", better: "lower"},
	{name: "engine.batch_mean", unit: "count", better: "higher"},
	{name: "engine.batch_p99", unit: "count", better: "higher"},
	{name: "engine.prefill_iter_share", unit: "share", better: "lower"},
	{name: "engine.mixed_iter_share", unit: "share", better: "lower"},
	{name: "engine.sim_busy_share", unit: "share", better: "higher"},
	{name: "engine.ttft_sim_s_p50", unit: "sim_s", better: "lower"},
	{name: "engine.mtpot_sim_s_p99", unit: "sim_s", better: "lower"},
	{name: "engine.queue_wait_sim_s_p50", unit: "sim_s", better: "lower"},
	{name: "engine.queue_wait_sim_s_p99", unit: "sim_s", better: "lower"},
	{name: "engine.chunks", unit: "count", better: "lower"},
	{name: "engine.chunk_tokens_mean", unit: "tokens", better: "higher"},
	{name: "engine.recompute_token_share", unit: "share", better: "lower"},
	{name: "engine.dropped", unit: "count", better: "lower"},

	{name: "kv.mem_util_mean", unit: "share", better: "higher"},
	{name: "kv.peak_util", unit: "share", better: "higher"},
	{name: "kv.prefix_hit_token_share", unit: "share", better: "higher"},
	{name: "kv.prefix_restored_tokens", unit: "tokens", better: "higher"},
	{name: "kv.prefix_evicted_blocks", unit: "count", better: "lower"},
	{name: "kv.prefix_dropped", unit: "count", better: "lower"},
	{name: "kv.link_xfers", unit: "count", better: "lower"},
	{name: "kv.link_retries", unit: "count", better: "lower"},
	{name: "kv.link_wait_sim_s_p99", unit: "sim_s", better: "lower"},
	{name: "kv.link_gb", unit: "GB", better: "lower"},

	{name: "dist.window_adds", unit: "count", better: "lower"},

	{name: "faults.crashes", unit: "count", better: "lower"},
	{name: "faults.orphans", unit: "count", better: "lower"},
	{name: "faults.recovered", unit: "count", better: "higher"},
	{name: "faults.lost", unit: "count", better: "lower"},

	{name: "server.latency_p50_us", unit: "us", better: "lower"},
	{name: "server.latency_p99_us", unit: "us", better: "lower"},
	{name: "server.stream_latency_p50_us", unit: "us", better: "lower"},
	{name: "server.handler_s", unit: "s", better: "lower"},
	{name: "server.http_overhead_share", unit: "share", better: "lower"},
	{name: "server.non200", unit: "count", better: "lower"},

	{name: "obs.callbacks", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "share", better: "lower"},

	{name: "process.cpu_s_per_kreq", unit: "s", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "process.heap_peak_mb", unit: "MB", better: "lower"},
}
