package main

// metricDef names one printed metric. moves names the end-to-end
// metric, and the workload, that a per-layer metric should move;
// BENCHMARK.json lists the same names, units and directions.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd is what a user of the system sees, printed on every
// workload. Tail latency is not among them: on a small shared machine
// CPU steal moves it by more than any usable bound from one run to the
// next, so it is printed untraced for reading and reported by the
// traced run as e2e.lat_tail_ms.
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"useful_gflops", "GFlop/s", "higher", ""},
	{"cpu_ms_per_op", "ms", "lower", ""},
	{"heap_peak_mb", "MB", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"ok_share", "share", "higher", ""},
}

// perLayer is printed by the traced run of every workload; a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"e2e.lat_tail_ms", "ms", "lower", "nothing gated: the workload's tail (p99 on serve-mixed, p90 elsewhere) over all ops of the traced run"},
	{"gemmimpl.plan_hit_share", "share", "higher", "lat_p50_ms on gemm-small"},
	{"gemmimpl.pack_ms_per_op", "ms", "lower", "lat_p50_ms on gemm-small"},
	{"gemmimpl.kernel_ms_per_op", "ms", "lower", "useful_gflops on gemm-large"},
	{"gemmimpl.copyout_ms_per_op", "ms", "lower", "lat_p50_ms on gemm-small"},
	{"gemmimpl.overhead_ms_per_op", "ms", "lower", "lat_p50_ms on gemm-small"},
	{"gemmimpl.pack_reuse_share", "share", "higher", "lat_p50_ms on gemm-small"},
	{"kernels.padding_ratio", "ratio", "lower", "useful_gflops on gemm-small"},
	{"kernels.executed_gflops", "GFlop/s", "higher", "useful_gflops on gemm-large"},
	{"clsim.launches_per_op", "count", "lower", "lat_p50_ms on gemm-small"},
	{"clsim.workgroups_per_op", "count", "lower", "lat_p50_ms on gemm-small"},
	{"clsim.bytes_per_op", "bytes", "lower", "lat_p50_ms on gemm-small"},
	{"clsim.buffers_created_per_op", "count", "lower", "lat_p50_ms on gemm-small"},
	{"batch.item_us", "us", "lower", "lat_p50_ms on gemm-small"},
	{"batch.loop_item_us", "us", "lower", "lat_p50_ms on gemm-small"},
	{"batch.speedup_vs_loop", "x", "higher", "lat_p50_ms on gemm-small"},
	{"serve.server_ms_p50", "ms", "lower", "lat_p50_ms on serve-mixed"},
	{"serve.wire_ms_p50", "ms", "lower", "lat_p50_ms on serve-mixed"},
	{"serve.codec_us", "us", "lower", "lat_p50_ms on serve-mixed"},
	{"serve.batch_size_mean", "count", "higher", "lat_p50_ms and e2e.lat_tail_ms on serve-mixed"},
	{"serve.coalesced_share", "share", "higher", "lat_p50_ms and e2e.lat_tail_ms on serve-mixed"},
	{"serve.shed_share", "share", "lower", "ok_share on serve-mixed"},
	{"serve.queue_depth_max", "count", "lower", "lat_p50_ms and e2e.lat_tail_ms on serve-mixed"},
	{"loadgen.lag_p99_ms", "ms", "lower", "e2e.lat_tail_ms on serve-mixed (checks the generator)"},
	{"core.native_check_ms", "ms", "lower", "lat_p50_ms on tune-verify"},
	{"codegen.gen_us", "us", "lower", "lat_p50_ms on tune-verify"},
	{"clc.compile_ms", "ms", "lower", "lat_p50_ms on tune-verify"},
	{"clc.vm_ms", "ms", "lower", "lat_p50_ms on tune-verify"},
	{"clc.vm_mflops", "MFlop/s", "higher", "cpu_ms_per_op on tune-verify"},
	{"clc.static_instrs", "count", "lower", "cpu_ms_per_op on tune-verify"},
	{"blas.reference_ms", "ms", "lower", "lat_p50_ms on tune-verify"},
	{"obs.trace_overhead_share", "share", "lower", "lat_p50_ms on every workload"},
}
