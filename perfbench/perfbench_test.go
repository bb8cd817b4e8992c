package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mltcp/internal/config"
)

// tiny returns a copy of w shrunk for tests: two inputs with a horizon
// of at most 8s (enough for packet dumbbells to interleave), so a full
// run (set-up, warm-up, timed loop, traced pass) takes about a second.
func tiny(w *benchWorkload) *benchWorkload {
	c := *w
	c.inputs = 2
	gen := w.gen
	c.gen = func(genSeed uint64, i int) *config.Scenario {
		scn := gen(genSeed, i)
		scn.DurationSec = min(scn.DurationSec, 8)
		return scn
	}
	return &c
}

var tinyOpts = []runOpts{
	{seconds: 0.01},
	{seconds: 0.01, traced: true, tracedOps: 2},
}

func runTiny(t *testing.T, w *benchWorkload, seed uint64, o runOpts) *result {
	t.Helper()
	res, _, err := run(tiny(w), seed, o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, seed, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// exercised names per-layer metrics each workload must drive above 0.
var exercised = map[string][]string{
	"fabric": {"backend.fluid_run_ms", "fluid.steps_per_run", "place.compile.calls", "learn.run.calls"},
	"packet": {"backend.packet_run_ms", "sim.events_per_run", "core.agg_evals_per_run", "netsim.drops_per_run"},
	"trace":  {"telemetry.decode_ms", "telemetry.events_per_run", "diagnose.explain.calls", "perfbench.op.calls"},
}

// TestEveryMetricPrintsWithUnit checks that an untraced run prints
// exactly the end-to-end metrics and a traced run exactly the per-layer
// ones, each with its declared unit, on every workload.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, w := range workloads {
		for _, o := range tinyOpts {
			res := runTiny(t, w, 1, o)
			defs := endToEnd
			if o.traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, o.traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, o.traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, o.traced, d.Name, m.Unit, d.Unit)
				}
			}
			if o.traced {
				for _, name := range exercised[w.name] {
					if res.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0", w.name, name)
					}
				}
			} else {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
					}
				}
			}
		}
	}
}

// exactMetric reports whether a metric is a count or a simulated
// statistic, which must repeat exactly for a fixed seed.
func exactMetric(name string) bool {
	switch name {
	case "slowdown_geomean", "overlap_mean", "interleaved_frac", "slowdown_err", "ok_frac":
		return true
	}
	if strings.HasSuffix(name, ".calls") {
		return true
	}
	for _, d := range layerCounters {
		if d.Name == name && d.Unit != "ns" && d.Unit != "ms" {
			return true
		}
	}
	return false
}

// TestExactMetricsRepeat runs each workload twice with one seed and
// checks that every simulated statistic and span count prints
// byte-for-byte the same.
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		for _, o := range tinyOpts {
			a, b := runTiny(t, w, 7, o), runTiny(t, w, 7, o)
			checked := 0
			for name, ma := range a.Metrics {
				if !exactMetric(name) {
					continue
				}
				checked++
				va := strconv.FormatFloat(ma.Value, 'g', -1, 64)
				vb := strconv.FormatFloat(b.Metrics[name].Value, 'g', -1, 64)
				if va != vb {
					t.Errorf("%s traced=%v: %s = %s then %s", w.name, o.traced, name, va, vb)
				}
			}
			if checked == 0 {
				t.Errorf("%s traced=%v: no exact metrics checked", w.name, o.traced)
			}
		}
	}
}

// TestSeedChangesInputs checks that the workload seed alone decides the
// generated inputs: the same seed repeats them, another changes them.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) []byte {
			var buf bytes.Buffer
			for i := 0; i < w.inputs; i++ {
				b, err := json.Marshal(w.gen(genSeedOf(seed, i), i))
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(gen(1), gen(1)) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if bytes.Equal(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// TestChecksRejectBadOutput feeds the output checks a correct op and
// tampered copies of it.
func TestChecksRejectBadOutput(t *testing.T) {
	w := tiny(traceWorkload)
	model, err := defaultModelJSON()
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup(w, 3, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *opResult {
		out, err := p.op(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := check(out); err != nil {
			t.Fatalf("untampered output fails its check: %v", err)
		}
		return out
	}
	ref := digest(fresh())
	tamper := map[string]func(*opResult){
		"bytes over":     func(o *opResult) { o.exact.Jobs[0].DeliveredBytes += 2 * o.exact.Jobs[0].BytesPerIter },
		"bytes under":    func(o *opResult) { o.exact.Jobs[0].DeliveredBytes = -1 },
		"below ideal":    func(o *opResult) { o.exact.Jobs[0].IterTimes[0] = o.exact.Jobs[0].Ideal - 1 },
		"round trip":     func(o *opResult) { o.roundTrip.InterleavedAt = o.exact.InterleavedAt + 1 },
		"round trip fct": func(o *opResult) { o.roundTrip.Jobs[0].FCTs[0]++ },
	}
	for name, f := range tamper {
		out := fresh()
		f(out)
		if check(out) == nil {
			t.Errorf("%s: check passed a tampered output", name)
		}
	}
	out := fresh()
	out.exact.Jobs[1].CommEnds[0]++
	if digest(out) == ref {
		t.Error("digest missed a changed phase end")
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the workloads and
// metric tables this package prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Errorf("workloads %q, want %q", names, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the steadiness check's reference.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{5, 5}, 5, 5},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.data); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTime checks span self time and per-root aggregation on a
// hand-built trace.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 15, End: 25, Parent: 1},
		{Name: "a", Start: 50, End: 60, Parent: 0},
		{Name: "root", Start: 200, End: 300, Parent: -1},
		{Name: "a", Start: 210, End: 290, Parent: 4},
	}}
	self := tr.selfNS()
	want := []int64{60, 20, 10, 10, 20, 80}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %d, want %d", i, self[i], want[i])
		}
	}
	sum := tr.summarize()
	if a := sum["a"]; a.calls != 3 || a.selfNS != 110 {
		t.Errorf("a: calls %d self %d, want 3 and 110", a.calls, a.selfNS)
	}
	// a's per-root totals are 30ns and 80ns; their median is 55ns.
	if got := sum["a"].perRootMS; math.Abs(got-55e-6) > 1e-12 {
		t.Errorf("a per-root median %v ms, want 55e-6", got)
	}
	var names []string
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "a,b,root" {
		t.Errorf("span names %v", names)
	}
}

// TestRefKernelRepeats checks that the reference kernel does the same
// work on every call, so its run time is a fixed unit.
func TestRefKernelRepeats(t *testing.T) {
	var r refRunner
	for k := 0; k < 3; k++ {
		if _, err := r.run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.samples) != 3 || r.want == 0 {
		t.Errorf("reference runs: %d samples, checksum %v", len(r.samples), r.want)
	}
}
