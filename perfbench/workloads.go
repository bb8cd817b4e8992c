package main

import (
	"bytes"
	"context"
	"fmt"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/diagnose"
	"mltcp/internal/experiments"
	"mltcp/internal/learn"
	"mltcp/internal/place"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/workload"
)

// benchWorkload is one closed-loop benchmark workload: a generator that turns
// the workload seed into a fixed set of scenarios, and the pipeline one
// op pushes a single scenario through.
type benchWorkload struct {
	name string
	why  string
	// inputs is the number of scenarios a run generates and cycles over.
	inputs int
	// genSpan names the span around input generation.
	genSpan string
	// gen builds input i from its generator seed.
	gen func(genSeed uint64, i int) *config.Scenario
	// exact runs the workload's exact tier (and, for trace, the trace
	// round trip) on one input, filling out.
	exact func(ctx context.Context, in *config.Scenario, runSeed uint64, tr *tracer, out *opResult) error
}

// workloads lists every workload by name, in the order BENCHMARK.json
// declares them.
var workloads = []*benchWorkload{fabricWorkload, packetWorkload, traceWorkload}

func workloadByName(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fabricWorkload runs the exact fluid tier's max-min allocator over dense
// fat-tree job traces, where the simulator spends microseconds per step.
var fabricWorkload = &benchWorkload{
	name:    "fabric",
	why:     "dense k=8 fat-tree Poisson job traces on the fluid tier's max-min allocator, plus the learned tier on the same input",
	inputs:  48,
	genSpan: "experiments.gen",
	gen: func(genSeed uint64, i int) *config.Scenario {
		return experiments.ClusterScenario(experiments.ClusterOpts{
			Jobs:              48,
			ArrivalRatePerSec: 16,
			MeanIters:         8,
			DurationSec:       10,
			Seed:              genSeed,
		})
	},
	exact: func(ctx context.Context, in *config.Scenario, runSeed uint64, tr *tracer, out *opResult) error {
		return tr.call("backend.fluid_run", func() (err error) {
			out.exact, err = (&backend.Fluid{}).Run(ctx, in, runSeed)
			return err
		})
	},
}

// packetWorkload runs the packet tier on small gpt2 dumbbells: the event
// engine, link queues, TCP senders and MLTCP's aggressiveness function do
// all the work, and the fluid allocator none.
var packetWorkload = &benchWorkload{
	name:    "packet",
	why:     "2- and 4-job gpt2 dumbbells on the packet tier: timer wheel, link queues, TCP senders and the MLTCP aggressiveness function",
	inputs:  96,
	genSpan: "perfbench.gen",
	gen: func(genSeed uint64, i int) *config.Scenario {
		jobs := 2
		if i%4 == 3 {
			jobs = 4
		}
		rng := sim.NewRNG(genSeed)
		scn := &config.Scenario{Name: fmt.Sprintf("packet-%02d", i), DurationSec: 8}
		for j := 0; j < jobs; j++ {
			scn.Jobs = append(scn.Jobs, config.Job{
				Name:     fmt.Sprintf("J%d", j+1),
				Profile:  workload.GPT2.Name,
				OffsetMS: 50 * rng.Float64(),
			})
		}
		return scn
	},
	exact: func(ctx context.Context, in *config.Scenario, runSeed uint64, tr *tracer, out *opResult) error {
		return tr.call("backend.packet_run", func() (err error) {
			out.exact, err = (&backend.Packet{}).Run(ctx, in, runSeed)
			return err
		})
	},
}

// traceWorkload is the `mltcp-trace -explain` path: a traced fluid
// dumbbell run, its JSONL encode and decode, the result rebuilt from the
// trace, and the diagnose layer's interleave and bottleneck reports.
var traceWorkload = &benchWorkload{
	name:    "trace",
	why:     "gpt3+3x gpt2 fluid dumbbell with telemetry on, then trace encode, decode, result rebuild and diagnosis",
	inputs:  48,
	genSpan: "perfbench.gen",
	gen: func(genSeed uint64, i int) *config.Scenario {
		rng := sim.NewRNG(genSeed)
		scn := &config.Scenario{Name: fmt.Sprintf("trace-%02d", i), DurationSec: 120}
		for j, profile := range []string{workload.GPT3.Name, workload.GPT2.Name, workload.GPT2.Name, workload.GPT2.Name} {
			scn.Jobs = append(scn.Jobs, config.Job{
				Name:     fmt.Sprintf("J%d", j+1),
				Profile:  profile,
				OffsetMS: 500 * rng.Float64(),
			})
		}
		return scn
	},
	exact: traceExact,
}

func traceExact(ctx context.Context, in *config.Scenario, runSeed uint64, tr *tracer, out *opResult) error {
	var (
		rec *telemetry.Recorder
		buf *telemetry.Buffer
		reg *telemetry.Registry
	)
	if err := tr.call("backend.fluid_traced_run", func() (err error) {
		rec, buf, reg = telemetry.NewBuffered(telemetry.Options{})
		out.exact, err = (&backend.Fluid{}).Run(telemetry.WithRecorder(ctx, rec), in, runSeed)
		rec.FlushLimiterStats()
		return err
	}); err != nil {
		return err
	}
	var enc bytes.Buffer
	if err := tr.call("telemetry.encode", func() error {
		return telemetry.Write(&enc, rec.Manifest(), buf.Events(), reg)
	}); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	out.traceEvents = buf.Len()
	out.traceBytes = enc.Len()
	out.limiterDrops = rec.DroppedByLimiter()
	var trc *telemetry.Trace
	if err := tr.call("telemetry.decode", func() (err error) {
		trc, err = telemetry.Read(bytes.NewReader(enc.Bytes()))
		return err
	}); err != nil {
		return fmt.Errorf("decode trace: %w", err)
	}
	if err := tr.call("backend.result_from_trace", func() (err error) {
		out.roundTrip, err = backend.ResultFromTrace(trc.Manifest, trc.Events)
		return err
	}); err != nil {
		return err
	}
	if err := tr.call("diagnose.explain", func() error {
		rep, err := diagnose.Explain(trc)
		if err == nil {
			out.verdict = rep.Verdict
		}
		return err
	}); err != nil {
		return err
	}
	return tr.call("diagnose.attribute", func() error {
		at, err := diagnose.Attribute(trc)
		if err == nil {
			out.attributedIters = len(at.Iters)
		}
		return err
	})
}

// opResult is everything one op produced.
type opResult struct {
	exact   *backend.Result
	learned *backend.Result
	// The trace workload's round trip: the result rebuilt from the
	// decoded trace, the trace's size, and the diagnose reports' gist.
	roundTrip       *backend.Result
	traceEvents     int
	traceBytes      int
	limiterDrops    int64
	verdict         string
	attributedIters int
}

// prepared is a workload after set-up: the decoded learned model and the
// generated, normalized inputs with their backend run seeds.
type prepared struct {
	w        *benchWorkload
	learned  *backend.Learned
	inputs   []*config.Scenario
	runSeeds []uint64
}

// genSeedOf and runSeedOf derive input i's generator seed and backend
// run seed from the workload seed, as two disjoint streams.
func genSeedOf(seed uint64, i int) uint64 { return sim.DeriveSeed(seed, uint64(2*i)) }
func runSeedOf(seed uint64, i int) uint64 { return sim.DeriveSeed(seed, uint64(2*i+1)) }

// setup is the one-time preparation a run times as setup_s: decode the
// learned model, generate every input from the workload seed, normalize
// it, and compile its fabric placement.
func setup(w *benchWorkload, seed uint64, modelJSON []byte, tr *tracer) (*prepared, error) {
	root := tr.begin("perfbench.setup")
	defer tr.end(root)
	p := &prepared{w: w}
	if err := tr.call("learn.model_load", func() error {
		m, err := learn.ReadModel(bytes.NewReader(modelJSON))
		p.learned = &backend.Learned{Model: m}
		return err
	}); err != nil {
		return nil, fmt.Errorf("decode learned model: %w", err)
	}
	for i := 0; i < w.inputs; i++ {
		var in *config.Scenario
		tr.call(w.genSpan, func() error { in = w.gen(genSeedOf(seed, i), i); return nil })
		if err := tr.call("config.normalize", in.Normalize); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		runSeed := runSeedOf(seed, i)
		if in.Topology != nil {
			var pc *place.Cluster
			tr.call("place.compile", func() error { pc = place.Compile(in, in.Specs(), runSeed); return nil })
			if pc == nil || len(pc.Paths) != len(in.Jobs) {
				return nil, fmt.Errorf("input %d: placement compiled no path for some job", i)
			}
		}
		p.inputs = append(p.inputs, in)
		p.runSeeds = append(p.runSeeds, runSeed)
	}
	return p, nil
}

// op pushes input i through the workload's whole pipeline: the exact tier
// (with the trace round trip for the trace workload), then the learned
// tier on the same input.
func (p *prepared) op(ctx context.Context, i int, tr *tracer) (*opResult, error) {
	root := tr.begin("perfbench.op")
	defer tr.end(root)
	out := &opResult{}
	in, seed := p.inputs[i], p.runSeeds[i]
	if err := p.w.exact(ctx, in, seed, tr, out); err != nil {
		return nil, fmt.Errorf("input %d: %w", i, err)
	}
	if err := tr.call("learn.run", func() (err error) {
		out.learned, err = p.learned.Run(context.Background(), in, seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("input %d: learned: %w", i, err)
	}
	return out, nil
}
