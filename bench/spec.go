package main

import (
	"encoding/json"
	"io"
)

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change is rejected; per-layer metrics carry none, and BENCHMARK.json
// then has no such key.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees. Times are host time;
// the *_agree_pct metrics are simulated and repeat exactly for a fixed
// seed. Every workload reports every one of them: a "session" is one
// simulation from generated inputs to a verified result, whether it ran
// in process or through cosimd, and the agreement numbers come from the
// accuracy guard that rides on every run (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s_per_mcycle", "s/Mcycle", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.20},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"submit_to_result_p50_ms", "ms", "lower", 0.25},
	{"lat_agree_pct_abstract", "%", "higher", 0.02},
	{"lat_agree_pct_reciprocal", "%", "higher", 0.02},
	{"lat_agree_pct_calibrated", "%", "higher", 0.02},
	{"exec_agree_pct_reciprocal", "%", "higher", 0.10},
	{"exec_agree_pct_calibrated", "%", "higher", 0.03},
}

// perLayer is printed by the traced run only. The prefix is the module
// the number belongs to; a metric that does not apply to a workload
// (dram.* under fixed memory, cosimd.* on an in-process run) reads 0.
var perLayer = []metricSpec{
	{Name: "build.workload_s", Unit: "s", Better: "lower"},
	{Name: "build.cosim_s", Unit: "s", Better: "lower"},

	{Name: "fullsys.tick_s", Unit: "s", Better: "lower"},
	{Name: "fullsys.tick_share", Unit: "share", Better: "lower"},
	{Name: "fullsys.ns_per_tile_cycle", Unit: "ns", Better: "lower"},
	{Name: "fullsys.retired_ops", Unit: "count", Better: "higher"},
	{Name: "fullsys.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "fullsys.l1_hit_rate", Unit: "share", Better: "higher"},

	{Name: "core.exchange_s", Unit: "s", Better: "lower"},
	{Name: "core.exchange_share", Unit: "share", Better: "lower"},
	{Name: "core.loop_share", Unit: "share", Better: "lower"},
	{Name: "core.quanta", Unit: "count", Better: "lower"},
	{Name: "core.exchange_ns_per_quantum", Unit: "ns", Better: "lower"},
	{Name: "core.avg_skew_cyc", Unit: "cycles", Better: "lower"},
	{Name: "core.max_skew_cyc", Unit: "cycles", Better: "lower"},

	{Name: "noc.advance_s", Unit: "s", Better: "lower"},
	{Name: "noc.inject_s", Unit: "s", Better: "lower"},
	{Name: "noc.drain_s", Unit: "s", Better: "lower"},
	{Name: "noc.share", Unit: "share", Better: "lower"},
	{Name: "noc.ns_per_router_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.ns_per_flit", Unit: "ns", Better: "lower"},
	{Name: "noc.cycles_stepped", Unit: "count", Better: "lower"},
	{Name: "noc.cycles_skipped", Unit: "count", Better: "higher"},
	{Name: "noc.active_occupancy", Unit: "share", Better: "lower"},
	{Name: "noc.flits_switched", Unit: "count", Better: "higher"},
	{Name: "noc.pool_hit_rate", Unit: "share", Better: "higher"},
	{Name: "noc.exhaustive_ratio", Unit: "ratio", Better: "lower"},
	{Name: "noc.shard_w2_speedup", Unit: "ratio", Better: "higher"},

	{Name: "abstractnet.inject_s", Unit: "s", Better: "lower"},
	{Name: "abstractnet.advance_s", Unit: "s", Better: "lower"},
	{Name: "abstractnet.drain_s", Unit: "s", Better: "lower"},
	{Name: "abstractnet.share", Unit: "share", Better: "lower"},
	{Name: "abstractnet.ns_per_packet", Unit: "ns", Better: "lower"},

	{Name: "calib.backend_s", Unit: "s", Better: "lower"},
	{Name: "calib.share", Unit: "share", Better: "lower"},
	{Name: "calib.retunes", Unit: "count", Better: "lower"},
	{Name: "calib.residual_mean", Unit: "cycles", Better: "lower"},
	{Name: "calib.drift_mean", Unit: "cycles", Better: "lower"},

	{Name: "dram.advance_s", Unit: "s", Better: "lower"},
	{Name: "dram.share", Unit: "share", Better: "lower"},
	{Name: "dram.completions", Unit: "count", Better: "higher"},
	{Name: "dram.row_hit_rate", Unit: "share", Better: "higher"},
	{Name: "dram.avg_latency_cyc", Unit: "cycles", Better: "lower"},
	{Name: "dram.ns_per_completion", Unit: "ns", Better: "lower"},

	{Name: "capture.fork_us", Unit: "us", Better: "lower"},
	{Name: "capture.restore_fork_us", Unit: "us", Better: "lower"},
	{Name: "capture.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.save_load_ms", Unit: "ms", Better: "lower"},
	{Name: "capture.blob_kb", Unit: "kB", Better: "lower"},

	{Name: "cosimd.submit_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cosimd.wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cosimd.result_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cosimd.cache_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cosimd.submit_to_result_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cosimd.worker_busy_share", Unit: "share", Better: "higher"},
	{Name: "cosimd.slices", Unit: "count", Better: "lower"},
	{Name: "cosimd.phase_slice_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_build_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_park_warm_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_faultin_warm_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_evict_disk_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_faultin_disk_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.phase_spill_s", Unit: "s", Better: "lower"},
	{Name: "cosimd.evictions", Unit: "count", Better: "lower"},
	{Name: "cosimd.spills", Unit: "count", Better: "lower"},
	{Name: "cosimd.warm_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "cosimd.fairness_spread_cyc", Unit: "cycles", Better: "lower"},

	{Name: "obsplane.events_published", Unit: "count", Better: "lower"},
	{Name: "obsplane.events_dropped", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.share_sum", Unit: "share", Better: "higher"},

	{Name: "host.alloc_mb_per_mcycle", Unit: "MB/Mcycle", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.slowness", Unit: "ratio", Better: "lower"},

	{Name: "accuracy.lat_err_pct_abstract", Unit: "%", Better: "lower"},
	{Name: "accuracy.lat_err_pct_reciprocal", Unit: "%", Better: "lower"},
	{Name: "accuracy.lat_err_pct_calibrated", Unit: "%", Better: "lower"},
	{Name: "accuracy.exec_err_pct_reciprocal", Unit: "%", Better: "lower"},
	{Name: "accuracy.exec_err_pct_calibrated", Unit: "%", Better: "lower"},
}

// runSeconds is the measurement window the driver passes as --seconds.
const runSeconds = 15

// benchmarkFile is the shape of BENCHMARK.json at the repository root;
// `go run ./bench -spec` prints it from the tables in this package, so
// the committed file and the program cannot drift (bench_test.go
// compares them).
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, nameWhy{w.Name, w.Why()})
	}
	return f
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchmarkSpec())
}
