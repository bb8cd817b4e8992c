package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the simulator sees, printed on
// every workload with tracing off. BENCHMARK.json must declare exactly
// these (a test pins it).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_p50_ref", "ref", "lower", 0.25},
	{"run_p90_ref", "ref", "lower", 0.2},
	{"sim_s_per_ref", "s/ref", "higher", 0.2},
	{"events_per_ref", "1/ref", "higher", 0.2},
	{"alloc_mb_per_run", "MB", "lower", 0.2},
	{"ok_frac", "frac", "higher", 0.01},
	{"slowdown_geomean", "ratio", "lower", 0.05},
	{"overlap_mean", "ratio", "lower", 0.2},
	{"interleaved_frac", "frac", "higher", 0.25},
	{"slowdown_err", "frac", "lower", 0.25},
}

// spanNames are the layer boundaries the traced run records: the
// benchmark's own root spans (perfbench.*) and one span per public
// function of a layer the benchmark calls. Each yields <name>_ms (median
// self time per op or per set-up), <name>.calls (calls in the traced
// run) and <name>.allocs (heap objects per call).
var spanNames = []string{
	"perfbench.setup",
	"learn.model_load",
	"experiments.gen",
	"perfbench.gen",
	"config.normalize",
	"place.compile",
	"perfbench.op",
	"backend.fluid_run",
	"backend.packet_run",
	"backend.fluid_traced_run",
	"telemetry.encode",
	"telemetry.decode",
	"backend.result_from_trace",
	"diagnose.explain",
	"diagnose.attribute",
	"learn.run",
}

// layerCounters are the per-layer metrics that do not come from span
// timing alone.
var layerCounters = []metricDef{
	{"fluid.steps_per_run", "count", "lower", 0},
	{"fluid.ns_per_step", "ns", "lower", 0},
	{"sim.events_per_run", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.max_heap_depth", "count", "lower", 0},
	{"tcp.retransmits_per_run", "count", "lower", 0},
	{"tcp.rto_per_run", "count", "lower", 0},
	{"netsim.drops_per_run", "count", "lower", 0},
	{"netsim.ecn_marks_per_run", "count", "lower", 0},
	{"core.agg_evals_per_run", "count", "lower", 0},
	{"telemetry.events_per_run", "count", "lower", 0},
	{"telemetry.trace_kb", "KiB", "lower", 0},
	{"telemetry.dropped_by_limiter", "count", "lower", 0},
	{"perfbench.trace_overhead_ms", "ms", "lower", 0},
	{"perfbench.run_ms_p50", "ms", "lower", 0},
	{"perfbench.ref_ms", "ms", "lower", 0},
}

// perLayer lists every metric the traced run prints, on every workload;
// a layer a workload does not exercise reads 0.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range spanNames {
		out = append(out,
			metricDef{n + "_ms", "ms", "lower", 0},
			metricDef{n + ".calls", "count", "lower", 0},
			metricDef{n + ".allocs", "count", "lower", 0})
	}
	return append(out, layerCounters...)
}

// quantile returns the q-quantile of sorted data by linear interpolation
// between closest ranks (0 for no data).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the steadiness report matches an independent check.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
