// Command perfbench is the repository's benchmark: three closed-loop
// workloads (fabric, packet, trace), each driven from one goroutine over
// inputs generated from a workload seed. An untraced run prints the
// end-to-end metrics; a traced run (--trace 1) records a span around
// every call into a layer and prints the per-layer metrics. See
// README.md in this directory for the workloads, the metric map, and
// how to read a traced run.
//
//	bash perfbench/run.sh --workload fabric --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mltcp/internal/backend"
	"mltcp/internal/learn"
	"mltcp/internal/obs"
	"mltcp/internal/telemetry"
)

// setupReps is how many set-up samples a run takes; setup_s is their
// median. Each sample is the mean of setupBatch set-ups run back to back:
// single set-ups of a few milliseconds scatter by up to 2x from one to
// the next on a shared machine, and the median of so few of them moves
// with that scatter from one process to the next.
const (
	setupReps  = 20
	setupBatch = 4
)

// minTracedOps is the least number of ops the traced run records; it
// runs whole passes over the inputs so span counts repeat exactly.
const minTracedOps = 32

// runOpts sizes one run.
type runOpts struct {
	seconds   float64 // length of the untraced timed loop
	traced    bool    // run the traced pass instead and report per-layer metrics
	tracedOps int     // least number of ops in the traced pass
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fabric, packet or trace")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 30, "how long the timed loop runs")
	traceFlag := fs.Int("trace", 0, "1 = run the traced pass and print per-layer metrics instead of end-to-end ones")
	spansPath := fs.String("spans", "", "where the traced run writes its spans as JSONL (default .bench_build/spans/<workload>-<seed>.jsonl)")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload this many times, alternating order, and report each metric's spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *steady > 0 {
		return steadyMain(*steady, *seed, *seconds, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	// One P: the workload runs from one goroutine, and with a second P
	// every GC stop-the-world waits for both vCPUs, so a vCPU stolen by a
	// neighbour stalls the op. With one P, GC work is interleaved on the
	// op's own thread and wall time tracks the work done.
	runtime.GOMAXPROCS(1)
	res, info, err := run(w, *seed, runOpts{seconds: *seconds, traced: *traceFlag == 1, tracedOps: minTracedOps})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if info.tracer != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed))
		}
		if err := writeSpans(path, info.tracer); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		info.spansPath = path
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d gomaxprocs=%d inputs=%d setups=%dx%d ops=%d traced_ops=%d spans=%s\n",
		w.name, *seed, runtime.GOMAXPROCS(0), w.inputs, setupReps, setupBatch, info.ops, info.tracedOps, info.spansPath)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo carries what a run records besides its metrics.
type runInfo struct {
	ops, tracedOps int
	tracer         *tracer
	spansPath      string
}

// reference is an input's first (warm-up) op: the output every later op
// on the input must reproduce, and the exact tier's self-metrics.
type reference struct {
	out      *opResult
	digest   uint64
	events   uint64 // fluid steps or packet events (obs RunStats.Events)
	maxDepth int
	simSec   float64
}

// loopStats accumulates a closed loop of ops: every op's host time and
// its time in reference units for the percentiles, and per-input sums,
// so means weigh every input once however the loop's last, partial pass
// over the inputs fell.
type loopStats struct {
	walls    []time.Duration
	ratios   []float64       // op time over the mean of its two flanking reference runs
	refWalls []time.Duration // the reference runs' host times
	inputs   []inputStats
	events   uint64 // exact-tier steps or events over all ops
	failed   int
}

type inputStats struct {
	ops        int
	ratio      float64 // summed op time in reference units
	allocBytes uint64
}

func (l *loopStats) ops() int { return len(l.walls) }

// perInputMean returns the mean over the inputs the loop reached of
// f(input's stats)/ops, the per-op average of one input.
func (l *loopStats) perInputMean(f func(inputStats) float64) float64 {
	var sum float64
	var n int
	for _, in := range l.inputs {
		if in.ops > 0 {
			sum += f(in) / float64(in.ops)
			n++
		}
	}
	return sum / float64(n)
}

// run performs one benchmark run: set-up, a warm-up pass that records
// each input's reference output, then the timed closed loop or, with
// o.traced, the traced pass in its place. The timed set-up samples are
// spread evenly through the timed loop, between ops: a burst of them at
// one moment (a fresh process's first milliseconds above all) reads tens
// of percent apart from one process to the next, while the loop's own
// timings, sampled over its whole length, agree within a few percent.
func run(w *benchWorkload, seed uint64, o runOpts) (*result, runInfo, error) {
	var info runInfo
	modelJSON, err := defaultModelJSON()
	if err != nil {
		return nil, info, err
	}
	if o.traced {
		info.tracer = newTracer()
	}

	p, err := setup(w, seed, modelJSON, nil)
	if err != nil {
		return nil, info, fmt.Errorf("set-up: %w", err)
	}

	ctx := context.Background()
	refs := make([]reference, len(p.inputs))
	for i := range p.inputs {
		col := obs.NewCollector()
		out, err := p.op(obs.WithCollector(ctx, col), i, nil)
		if err != nil {
			return nil, info, fmt.Errorf("warm-up: %w", err)
		}
		if err := check(out); err != nil {
			return nil, info, fmt.Errorf("warm-up: input %d: %w", i, err)
		}
		runs := col.Runs()
		if len(runs) != 1 {
			return nil, info, fmt.Errorf("warm-up: input %d recorded %d exact-tier runs, want 1", i, len(runs))
		}
		refs[i] = reference{out: out, digest: digest(out), events: runs[0].Events,
			maxDepth: runs[0].MaxHeapDepth, simSec: runs[0].SimDuration.Seconds()}
	}

	// Traced set-ups run after the traced pass.
	setups := &setupTimer{p: p, seed: seed, modelJSON: modelJSON, tr: info.tracer}
	res := &result{Metrics: map[string]metric{}}
	if !o.traced {
		tick := time.Duration(o.seconds / setupReps * float64(time.Second))
		untraced, _, err := loop(ctx, p, refs, nil, 0, o.seconds, tick, setups.rep)
		if err != nil {
			return nil, info, err
		}
		info.ops = untraced.ops()
		res.Attempted, res.Failed = untraced.ops(), untraced.failed
		if err := setups.fill(); err != nil {
			return nil, info, err
		}
		endToEndMetrics(res.Metrics, median(setups.secs), untraced, refs)
	} else {
		passes := (o.tracedOps + len(p.inputs) - 1) / len(p.inputs)
		tracedLoop, twin, err := loop(ctx, p, refs, info.tracer, passes*len(p.inputs), 0, 0, nil)
		if err != nil {
			return nil, info, err
		}
		info.tracedOps = tracedLoop.ops()
		res.Attempted = tracedLoop.ops() + twin.ops()
		res.Failed = tracedLoop.failed + twin.failed
		var kinds *kindCounter
		if refs[0].out.exact.Backend == backend.NamePacket {
			if kinds, err = countEventKinds(ctx, p); err != nil {
				return nil, info, err
			}
		}
		if err := setups.fill(); err != nil {
			return nil, info, err
		}
		layerMetrics(res.Metrics, info.tracer, tracedLoop, twin, refs, kinds)
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, info, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, info, nil
}

// setupTimer times repetitions of p's set-up. Each repetition must
// prepare the same inputs as p.
type setupTimer struct {
	p         *prepared
	seed      uint64
	modelJSON []byte
	tr        *tracer
	secs      []float64
}

// rep takes one sample: it times setupBatch set-ups back to back with
// the collector off, and records their mean.
func (s *setupTimer) rep() error {
	qs := make([]*prepared, setupBatch)
	var err error
	var secs float64
	withoutGC(func() {
		sw := obs.StartTimer()
		for k := range qs {
			if qs[k], err = setup(s.p.w, s.seed, s.modelJSON, s.tr); err != nil {
				return
			}
		}
		secs = sw.Elapsed().Seconds() / setupBatch
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.secs = append(s.secs, secs)
	for _, q := range qs {
		for i, in := range q.inputs {
			if in.Name != s.p.inputs[i].Name || len(in.Jobs) != len(s.p.inputs[i].Jobs) || q.runSeeds[i] != s.p.runSeeds[i] {
				return fmt.Errorf("set-up sample %d prepared input %d differently", len(s.secs), i)
			}
		}
	}
	return nil
}

// fill takes set-up samples until there are setupReps of them.
func (s *setupTimer) fill() error {
	for len(s.secs) < setupReps {
		if err := s.rep(); err != nil {
			return err
		}
	}
	return nil
}

// defaultModelJSON returns the embedded learned model in its serialized
// form, the bytes set-up decodes.
func defaultModelJSON() ([]byte, error) {
	model, err := learn.DefaultModel()
	if err != nil {
		return nil, fmt.Errorf("load learned model: %w", err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encode learned model: %w", err)
	}
	return buf.Bytes(), nil
}

// loop runs ops over the inputs in order: exactly maxOps of them when
// maxOps is positive, otherwise until seconds have passed. Each op is
// timed alone; the correctness checks run outside its timing window. A
// reference run precedes the first op and follows every op, and each
// op's time is also recorded over the mean of the two reference runs
// around it. With a positive tick, between calls to every tick of loop
// time, after the op that crosses each tick. With a tracer, every traced
// op is paired with the same op untraced, run just before it on even ops
// and just after it on odd ones, and twin holds those untraced ops in
// the same order, so the tracing overhead is measured pairwise, free of
// drift between two loops and of which of the two runs first.
func loop(ctx context.Context, p *prepared, refs []reference, tr *tracer, maxOps int, seconds float64,
	tick time.Duration, between func() error) (l, twin *loopStats, err error) {
	l = newLoopStats(len(p.inputs))
	if tr != nil {
		twin = newLoopStats(len(p.inputs))
	}
	kernel := &refRunner{}
	before, err := kernel.run()
	if err != nil {
		return nil, nil, err
	}
	elapsed := obs.StartTimer()
	next := tick
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		if maxOps <= 0 && n > 0 && elapsed.Elapsed().Seconds() >= seconds {
			break
		}
		i := n % len(p.inputs)
		var wall time.Duration
		switch {
		case twin == nil:
			wall = l.timeOp(ctx, p, refs, i, tr)
		case n%2 == 0:
			twin.timeOp(ctx, p, refs, i, nil)
			wall = l.timeOp(ctx, p, refs, i, tr)
		default:
			wall = l.timeOp(ctx, p, refs, i, tr)
			twin.timeOp(ctx, p, refs, i, nil)
		}
		after, err := kernel.run()
		if err != nil {
			return nil, nil, err
		}
		ratio := float64(wall) / (float64(before+after) / 2)
		l.ratios = append(l.ratios, ratio)
		l.inputs[i].ratio += ratio
		before = after
		if tick > 0 && elapsed.Elapsed() >= next {
			if err := between(); err != nil {
				return nil, nil, err
			}
			next += tick
		}
	}
	l.refWalls = kernel.samples
	return l, twin, nil
}

func newLoopStats(inputs int) *loopStats {
	return &loopStats{walls: make([]time.Duration, 0, 1024), inputs: make([]inputStats, inputs)}
}

// timeOp runs input i once with the collector off, records its cost,
// checks its output, and returns its host time.
func (l *loopStats) timeOp(ctx context.Context, p *prepared, refs []reference, i int, tr *tracer) time.Duration {
	var (
		out    *opResult
		err    error
		wall   time.Duration
		m0, m1 obs.MemSnapshot
	)
	withoutGC(func() {
		m0 = obs.ReadMem()
		sw := obs.StartTimer()
		out, err = p.op(ctx, i, tr)
		wall = sw.Elapsed()
		m1 = obs.ReadMem()
	})
	in := &l.inputs[i]
	in.ops++
	in.allocBytes += m1.TotalAllocBytes - m0.TotalAllocBytes
	l.walls = append(l.walls, wall)
	l.events += refs[i].events
	if err != nil || check(out) != nil || digest(out) != refs[i].digest {
		l.failed++
	}
	return wall
}

func endToEndMetrics(m map[string]metric, setupSec float64, l *loopStats, refs []reference) {
	ops := float64(l.ops())
	outs := make([]*opResult, len(refs))
	for i := range refs {
		outs[i] = refs[i].out
	}
	o := outcomeOf(outs)
	ratios := append([]float64(nil), l.ratios...)
	sort.Float64s(ratios)
	meanRatio := l.perInputMean(func(in inputStats) float64 { return in.ratio })
	var events, simSec float64
	var reached int
	for i, in := range l.inputs {
		if in.ops > 0 {
			events += float64(refs[i].events)
			simSec += refs[i].simSec
			reached++
		}
	}
	events /= float64(reached)
	simSec /= float64(reached)
	values := map[string]float64{
		"setup_s":          setupSec,
		"run_p50_ref":      quantile(ratios, 0.5),
		"run_p90_ref":      quantile(ratios, 0.9),
		"sim_s_per_ref":    simSec / meanRatio,
		"events_per_ref":   events / meanRatio,
		"alloc_mb_per_run": l.perInputMean(func(in inputStats) float64 { return float64(in.allocBytes) / 1e6 }),
		"ok_frac":          (ops - float64(l.failed)) / ops,
		"slowdown_geomean": o.slowdownGeomean,
		"overlap_mean":     o.overlapMean,
		"interleaved_frac": o.interleavedFrac,
		"slowdown_err":     o.slowdownErr,
	}
	for _, d := range endToEnd {
		m[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
}

// kindCounter is a telemetry sink that counts events by kind.
type kindCounter [256]int64

func (c *kindCounter) Emit(e telemetry.Event) { c[e.Kind]++ }

// countEventKinds reruns every input once with an unsampled telemetry
// recorder and counts the event kinds the transport layers emit. It runs
// apart from the traced pass so recording cannot inflate span times.
func countEventKinds(ctx context.Context, p *prepared) (*kindCounter, error) {
	c := &kindCounter{}
	for i, in := range p.inputs {
		rec := telemetry.New(c, telemetry.Options{SampleEvery: -1})
		out := &opResult{}
		if err := p.w.exact(telemetry.WithRecorder(ctx, rec), in, p.runSeeds[i], nil, out); err != nil {
			return nil, fmt.Errorf("count event kinds: input %d: %w", i, err)
		}
	}
	return c, nil
}

func layerMetrics(m map[string]metric, tr *tracer, traced, twin *loopStats, refs []reference, kinds *kindCounter) {
	values := map[string]float64{}
	sum := tr.summarize()
	for _, n := range spanNames {
		ls := sum[n]
		if ls == nil {
			continue
		}
		values[n+"_ms"] = ls.perRootMS
		values[n+".calls"] = float64(ls.calls)
		values[n+".allocs"] = float64(ls.allocs) / float64(ls.calls)
	}
	inputs := float64(len(refs))
	var events uint64
	var maxDepth int
	for _, r := range refs {
		events += r.events
		maxDepth = max(maxDepth, r.maxDepth)
		values["telemetry.events_per_run"] += float64(r.out.traceEvents) / inputs
		values["telemetry.trace_kb"] += float64(r.out.traceBytes) / 1024 / inputs
		values["telemetry.dropped_by_limiter"] += float64(r.out.limiterDrops) / inputs
	}
	// ns per unit of exact-tier work: the exact span's self time over the
	// traced ops against the steps or events those ops performed.
	exactNS := func(span string) float64 {
		if ls := sum[span]; ls != nil && traced.events > 0 {
			return float64(ls.selfNS) / float64(traced.events)
		}
		return 0
	}
	if refs[0].out.exact.Backend == backend.NamePacket {
		values["sim.events_per_run"] = float64(events) / inputs
		values["sim.ns_per_event"] = exactNS("backend.packet_run")
		values["sim.max_heap_depth"] = float64(maxDepth)
	} else {
		values["fluid.steps_per_run"] = float64(events) / inputs
		values["fluid.ns_per_step"] = exactNS("backend.fluid_run") + exactNS("backend.fluid_traced_run")
	}
	if kinds != nil {
		values["tcp.retransmits_per_run"] = float64(kinds[telemetry.KindRetransmit]) / inputs
		values["tcp.rto_per_run"] = float64(kinds[telemetry.KindRTO]) / inputs
		values["netsim.drops_per_run"] = float64(kinds[telemetry.KindDrop]) / inputs
		values["netsim.ecn_marks_per_run"] = float64(kinds[telemetry.KindECNMark]) / inputs
		values["core.agg_evals_per_run"] = float64(kinds[telemetry.KindAgg]) / inputs
	}
	overhead := make([]float64, traced.ops())
	for k := range overhead {
		overhead[k] = float64(traced.walls[k]-twin.walls[k]) / float64(time.Millisecond)
	}
	values["perfbench.trace_overhead_ms"] = median(overhead)
	values["perfbench.run_ms_p50"] = median(millis(twin.walls))
	values["perfbench.ref_ms"] = median(millis(traced.refWalls))
	for _, d := range perLayer() {
		m[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return ms
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans to %s: %w", path, err)
	}
	return nil
}
