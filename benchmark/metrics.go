package main

// metricDef names one metric; BENCHMARK.json repeats these tables and the
// smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run on every workload; README.md says what each means on
// sim_figures, and why the issue's other five end-to-end metrics are
// per-layer load.* metrics here.
var endToEnd = []metricDef{
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// higherIsBetter reports the direction of a named metric.
func higherIsBetter(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Better == "higher"
			}
		}
	}
	return false
}

// judged are the metrics -check compares between two result sets: the
// end-to-end ones under the driver's bounds, then the issue's timing
// metrics, which the host's noise demoted to per-layer, under the bounds
// the issue gave them.
var judged = append(append([]metricDef(nil), endToEnd...),
	metricDef{"load.ops_per_s", "1/s", "higher", 0.10},
	metricDef{"load.p50_us", "us", "lower", 0.10},
	metricDef{"load.p99_us", "us", "lower", 0.15},
	metricDef{"load.cpu_us_per_op", "us", "lower", 0.10},
)

// stageNames are the single exported functions the traced run times, in
// datapath order; each yields <name>_ns and <name>_allocs.
var stageNames = []string{
	"wire.encode_request", "transport.frame_stage", "transport.frame_next", "wire.decode_request",
	"memory.guard_lock", "memory.peek", "memory.write", "alloc.pop_recycle",
	"prism.exec_read", "prism.exec_write", "prism.exec_allocate", "prism.exec_cas",
	"prism.exec_chase_d8", "prism.exec_scan_32k",
	"wire.encode_response", "wire.decode_response",
	"sim.schedule_fire", "sim.timer_start_stop", "rdma.simulated_get", "rdma.simulated_put",
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric that does not apply to a workload (a socket counter on
// sim_figures, a scheduler counter on a live workload) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Counters read from exported accessors after the workload.
		{Name: "transport.client_frames_per_write", Unit: "count", Better: "higher"},
		{Name: "transport.client_bytes_per_write", Unit: "B", Better: "higher"},
		{Name: "transport.client_bytes_per_read", Unit: "B", Better: "higher"},
		{Name: "transport.server_frames_per_write", Unit: "count", Better: "higher"},
		{Name: "transport.server_batch_len", Unit: "count", Better: "higher"},
		{Name: "transport.syscalls_per_op", Unit: "count", Better: "lower"},
		{Name: "transport.wire_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "kv.round_trips_per_op", Unit: "count", Better: "lower"},
		{Name: "kv.probes_per_get", Unit: "count", Better: "lower"},
		{Name: "kv.cas_fail_share", Unit: "ratio", Better: "lower"},
		{Name: "prism.ops_per_request", Unit: "count", Better: "higher"},
		{Name: "prism.program_steps_per_op", Unit: "count", Better: "lower"},
		{Name: "load.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "load.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "load.failed_ops_share", Unit: "ratio", Better: "lower"},
		{Name: "load.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "load.p50_us", Unit: "us", Better: "lower"},
		{Name: "load.p99_us", Unit: "us", Better: "lower"},
		{Name: "load.cpu_us_per_op", Unit: "us", Better: "lower"},
		{Name: "load.slice_wall_s", Unit: "s", Better: "lower"},
		{Name: "load.setup_raw_s", Unit: "s", Better: "lower"},
		{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.mean_burst_len", Unit: "count", Better: "higher"},
		{Name: "sim.windows", Unit: "count", Better: "lower"},
		{Name: "sim.barriers", Unit: "count", Better: "lower"},
		{Name: "sim.timer_fires", Unit: "count", Better: "lower"},
		{Name: "sim.wheel_cascades", Unit: "count", Better: "lower"},
		{Name: "sim.allocs_per_op", Unit: "count", Better: "lower"},
	}
	for _, f := range simFigures {
		defs = append(defs, metricDef{Name: "bench." + f.name + "_wall_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "bench.parallel_wall_s", Unit: "s", Better: "lower"})
	// Stage costs: time and allocations around one exported function.
	for _, s := range stageNames {
		defs = append(defs,
			metricDef{Name: s + "_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: s + "_allocs", Unit: "count", Better: "lower"})
	}
	// The latency ladder and the probes that run beside the workload.
	return append(defs,
		metricDef{Name: "transport.pipe_rtt_us", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.unix_rtt_us", Unit: "us", Better: "lower"},
		metricDef{Name: "transport.kernel_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "kv.get_overhead_us", Unit: "us", Better: "lower"},
		metricDef{Name: "memory.guard_wait_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "memory.guard_wait_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "load.unattributed_us", Unit: "us", Better: "lower"},
		metricDef{Name: "load.generator_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "load.trace_overhead", Unit: "ratio", Better: "lower"},
		metricDef{Name: "load.slice_cv", Unit: "ratio", Better: "lower"},
	)
}
