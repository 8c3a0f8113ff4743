package main

// metricDef names one ledger row. BENCHMARK.json repeats these names and
// units and adds direction and bound; smoke_test.go holds the two equal.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher": which way is an improvement
}

// endToEnd are the rows of a run with tracing off. Every workload reports
// every row, so each is defined per workload (README.md, "End-to-end
// metrics"): what an op is, and what quality means.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mem_held_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"quality_pct", "%", "higher"},
}

// perLayer are the rows of a traced run, layer = module name. Rows in a
// unit of time are measured in every traced run, whatever the workload;
// counts, shares and rates that a workload never produces read 0 there.
var perLayer = []metricDef{
	// live test stage budget (live-loopback, or two staged tests elsewhere)
	{"transport.select_ms_p50", "ms", "lower"},
	{"transport.handshake_ms_p50", "ms", "lower"},
	{"transport.first_sample_ms_p50", "ms", "lower"},
	{"transport.report_ms_p50", "ms", "lower"},
	{"swiftest.live_overhead_ms_p50", "ms", "lower"},
	// live-loopback
	{"swiftest.live_data_mb_p50", "MB", "lower"},
	{"transport.sample_cv_pct", "%", "lower"},
	{"transport.sample_wait_share", "share", "higher"},
	{"core.live_converged_share", "share", "higher"},
	{"emu.relay_delivered_mb", "MB", "lower"},
	{"emu.relay_dropped", "count", "lower"},
	// server-saturate
	{"transport.goodput_mbps.r400", "Mbit/s", "higher"},
	{"transport.goodput_mbps.r1600", "Mbit/s", "higher"},
	{"transport.goodput_mbps.r12800", "Mbit/s", "higher"},
	{"transport.rate_error_pct.r400", "%", "lower"},
	{"transport.rate_error_pct.r1600", "%", "lower"},
	{"transport.rate_error_pct.r12800", "%", "lower"},
	{"transport.client_loss_pct", "%", "lower"},
	{"transport.cpu_user_s_per_gb", "s/GB", "lower"},
	{"transport.cpu_sys_s_per_gb", "s/GB", "lower"},
	{"transport.datagrams_per_batch", "count", "higher"},
	{"transport.send_errors", "count", "lower"},
	{"transport.rate_clamped", "count", "lower"},
	// stand-alone: batchio, wire
	{"batchio.send_ns_per_datagram.auto", "ns", "lower"},
	{"batchio.send_ns_per_datagram.fallback", "ns", "lower"},
	{"batchio.send_allocs_per_datagram", "count", "lower"},
	{"batchio.recv_ns_per_datagram", "ns", "lower"},
	{"wire.data_encode_ns", "ns", "lower"},
	{"wire.data_decode_ns", "ns", "lower"},
	{"wire.control_roundtrip_ns", "ns", "lower"},
	{"wire.token_verify_ns", "ns", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	// engine and emulator per test (sim-static, or 2000 staged tests elsewhere)
	{"core.engine_self_us_per_test", "us", "lower"},
	{"linksim.probe_us_per_test", "us", "lower"},
	{"core.virtual_ms_per_test", "ms", "lower"},
	{"core.samples_per_test", "count", "lower"},
	{"core.escalations_per_test", "count", "lower"},
	{"core.converged_share", "share", "higher"},
	// stand-alone: policies, estimators, emulator tick
	{"core.decide_us_per_test.crossing.n20", "us", "lower"},
	{"core.decide_us_per_test.crossing.n90", "us", "lower"},
	{"core.decide_us_per_test.fastbts.n20", "us", "lower"},
	{"core.decide_us_per_test.fastbts.n90", "us", "lower"},
	{"core.decide_us_per_test.earlystop.n20", "us", "lower"},
	{"core.decide_us_per_test.earlystop.n90", "us", "lower"},
	{"estimate.compute_ns.n20", "ns", "lower"},
	{"estimate.compute_ns.n90", "ns", "lower"},
	{"estimate.classify_bdp_ns.n20", "ns", "lower"},
	{"estimate.classify_bdp_ns.n90", "ns", "lower"},
	{"earlystop.featurize_ns", "ns", "lower"},
	{"earlystop.predict_ns", "ns", "lower"},
	{"linksim.advance_ns_per_tick.static", "ns", "lower"},
	{"linksim.advance_ns_per_tick.hooked", "ns", "lower"},
	{"ranprofile.at_ns", "ns", "lower"},
	{"baseline.btsapp_ms_per_run", "ms", "lower"},
	{"baseline.fast_ms_per_run", "ms", "lower"},
	{"baseline.fastbts_ms_per_run", "ms", "lower"},
	{"exper.speedup_workers", "ratio", "higher"},
	// campaign-ran
	{"ranprofile.state_changes_per_run", "count", "lower"},
	{"ranprofile.handovers_per_run", "count", "lower"},
	{"exper.cells", "count", "higher"},
	{"exper.mean_accuracy_pct", "%", "higher"},
	{"exper.converged_share", "share", "higher"},
	// stand-alone: control plane
	{"fleet.dispatch_ns_per_op", "ns", "lower"},
	{"fleet.dispatch_allocs_per_op", "count", "lower"},
	{"deploy.plan_ms", "ms", "lower"},
	// fleet-day
	{"loadgen.virtual_speedup", "ratio", "higher"},
	{"loadgen.peak_concurrent", "count", "higher"},
	{"fleet.rejected_share", "share", "lower"},
	{"fleet.failovers", "count", "lower"},
	// every workload: process CPU (user+sys) per op over the untraced
	// batches, and what the traced ones cost
	{"process.cpu_us_per_op", "us", "lower"},
	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.trace_events_per_test", "count", "lower"},
}
