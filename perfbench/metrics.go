package main

// MetricDef names one metric and its unit. The lists below are the
// benchmark's contract: BENCHMARK.json must list exactly these names.
type MetricDef struct {
	Name  string
	Unit  string
	Lower bool // lower is better
}

// endToEndMetrics are what a user of the repository sees. Every workload
// reports all of them; README.md defines each per workload.
var endToEndMetrics = []MetricDef{
	{"setup_s", "s", true},
	{"wall_s", "s", true},
	{"sim_mips", "MIPS", false},
	{"effective_mips", "MIPS", false},
	{"requests_per_s", "1/s", false},
	{"latency_p50_ms", "ms", true},
	{"latency_p99_ms", "ms", true},
	{"peak_rss_mb", "MB", true},
}

// cores are the four paradigms of Figure 13 by their metric names.
var cores = []string{"inorder", "dep", "braid", "ooo"}

// stages are the engine stages a CPU profile folds into (see stageOf).
var stages = []string{"fetch", "dispatch", "issue", "writeback", "retire", "fastforward", "warm", "replay", "other"}

// layerMetrics are the per-layer metrics of a traced run. A layer a
// workload does not exercise reports 0.
var layerMetrics = func() []MetricDef {
	ms := []MetricDef{
		{"workload.generate_s", "s", true},
		{"braid.compile_s", "s", true},
		{"interp.calibrate_s", "s", true},
		{"interp.characterize_s", "s", true},
		{"interp.dynstats_s", "s", true},
		{"experiments.point_requests", "count", true},
		{"experiments.sim_runs", "count", true},
		{"experiments.memo_hit_ratio", "ratio", false},
		{"experiments.checkpoint_records", "count", true},
	}
	for _, c := range cores {
		ms = append(ms,
			MetricDef{"uarch." + c + ".host_s", "s", true},
			MetricDef{"uarch." + c + ".mips", "MIPS", false},
			MetricDef{"uarch." + c + ".sims", "count", true})
	}
	for _, s := range stages {
		ms = append(ms, MetricDef{"uarch.stage." + s + "_share", "ratio", true})
	}
	ms = append(ms,
		MetricDef{"uarch.sampled.detailed_instrs", "count", true},
		MetricDef{"uarch.sampled.ffwd_instrs", "count", true},
		MetricDef{"uarch.sampled.intervals", "count", true})
	for _, c := range cores {
		ms = append(ms, MetricDef{"model." + c + ".ipc", "instr/cycle", false})
	}
	ms = append(ms,
		MetricDef{"model.fig13_braid_ooo_ratio", "ratio", false},
		MetricDef{"model.claims_mean_abs_rel_err", "ratio", true},
		MetricDef{"service.handler_p50_ms", "ms", true},
		MetricDef{"service.handler_p99_ms", "ms", true},
		MetricDef{"service.hit_handler_p50_ms", "ms", true},
		MetricDef{"service.miss_handler_p50_ms", "ms", true},
		MetricDef{"service.hit_ratio", "ratio", false},
		MetricDef{"service.coalesced", "count", true},
		MetricDef{"service.shed", "count", true},
		MetricDef{"remote.attempts", "count", true},
		MetricDef{"remote.retries", "count", true},
		MetricDef{"remote.failovers", "count", true},
		MetricDef{"remote.useful_ratio", "ratio", false},
		MetricDef{"remote.client_p50_ms", "ms", true},
		MetricDef{"net.transport_p50_ms", "ms", true},
		MetricDef{"remote.bytes_sent", "bytes", true},
		MetricDef{"remote.bytes_received", "bytes", true},
		MetricDef{"check.error_rate", "ratio", true},
		MetricDef{"trace.overhead_ratio", "ratio", true})
	return ms
}()

// tracer collects the per-layer values of a traced phase. Values added
// with add are reported per traced iteration; values set with set are
// reported as they are (ratios, percentiles over pooled samples).
type tracer struct {
	iters int
	sums  map[string]float64
	vals  map[string]float64
}

func newTracer() *tracer {
	return &tracer{sums: map[string]float64{}, vals: map[string]float64{}}
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

func (t *tracer) add(name string, v float64) { t.sums[name] += v }

// ratio of two sums (0 when the denominator is).
func (t *tracer) ratio(num, den string) float64 {
	if t.sums[den] == 0 {
		return 0
	}
	return t.sums[num] / t.sums[den]
}

// values reports every value collected: sums per traced iteration, set
// values as they are.
func (t *tracer) values() map[string]float64 {
	out := make(map[string]float64, len(t.sums)+len(t.vals))
	for k, v := range t.sums {
		out[k] = v / float64(max(t.iters, 1))
	}
	for k, v := range t.vals {
		out[k] = v
	}
	return out
}
