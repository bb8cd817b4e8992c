package mltcp_test

// One benchmark per paper figure/claim plus ablations of the design
// decisions DESIGN.md calls out. Each benchmark regenerates its experiment
// end to end and reports the headline quantity with b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation in one command. Absolute times are
// simulator throughput, not the paper's wall-clock numbers; the reported
// custom metrics are the quantities to compare with the paper.

import (
	"context"
	"testing"

	"mltcp/internal/analysis"
	"mltcp/internal/backend"
	"mltcp/internal/collective"
	"mltcp/internal/config"
	"mltcp/internal/core"
	"mltcp/internal/experiments"
	"mltcp/internal/fluid"
	"mltcp/internal/multires"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// BenchmarkFig1TrafficPatterns regenerates the isolated job demand traces.
func BenchmarkFig1TrafficPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig1()
		if len(res.Demand) != 4 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig2aCentralized reports the centralized schedule's worst job
// slowdown (paper: 1.0 — every job at its ideal iteration time).
func BenchmarkFig2aCentralized(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2Centralized()
		worst = 0
		for _, j := range res.Jobs {
			if j.Slowdown > worst {
				worst = j.Slowdown
			}
		}
	}
	b.ReportMetric(worst, "worst-slowdown")
}

// BenchmarkFig2bSRPT reports J1's slowdown under pFabric-style SRPT
// (paper: 1.5×).
func BenchmarkFig2bSRPT(b *testing.B) {
	var j1 float64
	for i := 0; i < b.N; i++ {
		j1 = experiments.Fig2SRPT().Jobs[0].Slowdown
	}
	b.ReportMetric(j1, "J1-slowdown")
}

// BenchmarkFig2cMLTCP reports MLTCP's worst steady-state slowdown and the
// convergence iteration (paper: within 5% of optimal, ~20 iterations).
func BenchmarkFig2cMLTCP(b *testing.B) {
	var worst float64
	var conv int
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2MLTCP()
		worst = 0
		for _, j := range res.Jobs {
			if j.Slowdown > worst {
				worst = j.Slowdown
			}
		}
		conv = res.ConvergedAt
	}
	b.ReportMetric(worst, "worst-slowdown")
	b.ReportMetric(float64(conv), "converged-at-iter")
}

// BenchmarkFig3AggressivenessFunctions reports how many of the six
// functions converge (paper: the four increasing ones).
func BenchmarkFig3AggressivenessFunctions(b *testing.B) {
	var converged int
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3()
		converged = 0
		for fi := range res.Functions {
			s := res.IterTimeMS[fi]
			if s[len(s)-1] <= res.IdealMS*1.03 {
				converged++
			}
		}
	}
	b.ReportMetric(float64(converged), "functions-converged")
}

// BenchmarkFig4SixJobs reports the tail iteration-time speedup over Reno
// (paper: 1.59×).
func BenchmarkFig4SixJobs(b *testing.B) {
	var tail float64
	for i := 0; i < b.N; i++ {
		tail = experiments.Fig4().TailSpeedup
	}
	b.ReportMetric(tail, "p99-speedup")
}

// BenchmarkFig5LossFunction reports where the loss minimum falls relative
// to T/2 (paper: exactly T/2 for a = 1/2).
func BenchmarkFig5LossFunction(b *testing.B) {
	var minDelta float64
	for i := 0; i < b.N; i++ {
		minDelta = experiments.Fig5().MinDeltaSec
	}
	b.ReportMetric(minDelta, "loss-min-delta-s")
}

// BenchmarkFig6Sliding reports the iteration at which two jobs' phases
// become disjoint (paper: a few iterations).
func BenchmarkFig6Sliding(b *testing.B) {
	var at int
	for i := 0; i < b.N; i++ {
		at = experiments.Fig6().InterleavedAt
	}
	b.ReportMetric(float64(at), "interleaved-at-iter")
}

// BenchmarkNoiseBound reports the worst ratio of measured steady-state
// error std to the §4 bound 2σ(1+I/S) (paper: <= 1).
func BenchmarkNoiseBound(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := experiments.NoiseBound(2)
		worst = 0
		for k := range res.SigmaMS {
			if r := res.MeasuredMS[k] / res.BoundMS[k]; r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "measured/bound")
}

// BenchmarkFairnessExponent reports the fitted throughput-vs-loss exponents
// and MLTCP's bandwidth advantage (§5: Reno 1/√p; MLTCP claims more at the
// same p without starving legacy flows).
func BenchmarkFairnessExponent(b *testing.B) {
	var res experiments.FairnessResult
	for i := 0; i < b.N; i++ {
		res = experiments.FairnessWithHorizon(30 * sim.Second)
	}
	b.ReportMetric(res.RenoExponent, "reno-exponent")
	b.ReportMetric(res.MLTCPExponent, "mltcp-exponent")
	b.ReportMetric(res.AdvantageRatio, "advantage-ratio")
	b.ReportMetric(res.ShareRatio, "coexist-share-ratio")
}

// BenchmarkMultiResource reports the iteration-time improvement from
// progress-weighted CPU allocation (§5's generalization).
func BenchmarkMultiResource(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		run := func(agg *core.AggFunc) sim.Time {
			var tasks []*multires.Task
			for k := 0; k < 3; k++ {
				tasks = append(tasks, &multires.Task{
					Name: "t", WorkUnits: 3.2, IdleTime: 800 * sim.Millisecond,
					StartOffset: sim.Time(k) * 10 * sim.Millisecond, Agg: agg,
				})
			}
			multires.NewScheduler(8, tasks).Run(120 * sim.Second)
			return tasks[0].AvgIterTime(20)
		}
		fair := run(nil)
		agg := core.Default()
		weighted := run(&agg)
		improvement = fair.Seconds() / weighted.Seconds()
	}
	b.ReportMetric(improvement, "iter-speedup")
}

// BenchmarkBackendComparison runs the canonical two-job scenario through
// both backends from the same config.Scenario and reports each fidelity's
// worst steady-state slowdown plus the cross-fidelity gaps — the headline
// numbers of the fidelity-agnostic backend seam (CI runs this on every
// push as a cross-fidelity sanity check).
func BenchmarkBackendComparison(b *testing.B) {
	var cf *experiments.CrossFidelityResult
	for i := 0; i < b.N; i++ {
		var err error
		cf, err = experiments.CrossFidelityCanonical(context.Background(), 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := func(r *backend.Result) float64 {
		var w float64
		for _, j := range r.Jobs {
			if s := j.Slowdown(20); s > w {
				w = s
			}
		}
		return w
	}
	b.ReportMetric(worst(cf.Fluid), "fluid-worst-slowdown")
	b.ReportMetric(worst(cf.Packet), "packet-worst-slowdown")
	b.ReportMetric(cf.MaxSlowdownGap, "slowdown-gap")
	b.ReportMetric(cf.OverlapGap, "overlap-gap")
}

// BenchmarkTelemetryOverhead measures the telemetry subsystem's cost on a
// packet-level run: baseline (no recorder — the nil fast path every
// untraced run takes), discard (full event construction into a dropping
// sink), and buffer (events retained and metrics aggregated, as under
// mltcpsim -trace). baseline vs the pre-telemetry revision bounds the
// nil-check tax; baseline vs buffer is the price of tracing.
func BenchmarkTelemetryOverhead(b *testing.B) {
	scn := &config.Scenario{
		Name:        "telemetry-overhead",
		Policy:      "mltcp",
		DurationSec: 20,
		Jobs: []config.Job{
			{Name: "J1", Profile: "gpt2"},
			{Name: "J2", Profile: "gpt2"},
		},
	}
	run := func(b *testing.B, ctx context.Context) {
		for i := 0; i < b.N; i++ {
			if _, err := (&backend.Packet{}).Run(ctx, scn, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) {
		run(b, context.Background())
	})
	b.Run("discard", func(b *testing.B) {
		rec := telemetry.New(telemetry.Discard, telemetry.Options{})
		run(b, telemetry.WithRecorder(context.Background(), rec))
	})
	b.Run("buffer", func(b *testing.B) {
		rec, buf, _ := telemetry.NewBuffered(telemetry.Options{})
		run(b, telemetry.WithRecorder(context.Background(), rec))
		b.ReportMetric(float64(buf.Len())/float64(b.N), "events/run")
	})
}

// --- Ablations ---

// BenchmarkAblationPacketVsFluid runs the same two-job MLTCP convergence at
// both fidelities and reports each steady-state slowdown; agreement
// validates the fluid weighted-share abstraction.
func BenchmarkAblationPacketVsFluid(b *testing.B) {
	var packetSlow, fluidSlow float64
	for i := 0; i < b.N; i++ {
		pl := experiments.PacketLevel(2, experiments.MLTCPRenoFactory(400*sim.Millisecond),
			"mltcp-reno", 60*sim.Second, 0)
		packetSlow = pl.SteadyAvg[0].Seconds() / pl.Ideal.Seconds()

		agg := core.Default()
		jobs := []*fluid.Job{
			{Spec: workload.Spec{Name: "J1", Profile: workload.GPT2}, Agg: &agg},
			{Spec: workload.Spec{Name: "J2", Profile: workload.GPT2, StartOffset: 10 * sim.Millisecond}, Agg: &agg},
		}
		s := fluid.New(fluid.Config{Capacity: experiments.LinkCapacity, Policy: fluid.WeightedShare{}}, jobs)
		s.Run(60 * sim.Second)
		fluidSlow = jobs[0].AvgIterTime(20).Seconds() / workload.GPT2.IdealIterTime(experiments.LinkCapacity).Seconds()
	}
	b.ReportMetric(packetSlow, "packet-slowdown")
	b.ReportMetric(fluidSlow, "fluid-slowdown")
}

// BenchmarkAblationMLTCPBase compares MLTCP wrapped around Reno vs CUBIC at
// packet level (§6: other schemes are augmented the same way).
func BenchmarkAblationMLTCPBase(b *testing.B) {
	var reno, cubic float64
	for i := 0; i < b.N; i++ {
		r := experiments.PacketLevel(2, experiments.MLTCPRenoFactory(400*sim.Millisecond),
			"mltcp-reno", 60*sim.Second, 0)
		c := experiments.PacketLevel(2, experiments.MLTCPCubicFactory(400*sim.Millisecond),
			"mltcp-cubic", 60*sim.Second, 0)
		reno = r.SteadyAvg[0].Seconds() / r.Ideal.Seconds()
		cubic = c.SteadyAvg[0].Seconds() / c.Ideal.Seconds()
	}
	b.ReportMetric(reno, "mltcp-reno-slowdown")
	b.ReportMetric(cubic, "mltcp-cubic-slowdown")
}

// BenchmarkAblationLearnedParams compares given vs auto-learned
// TOTAL_BYTES/COMP_TIME.
func BenchmarkAblationLearnedParams(b *testing.B) {
	var given, learned float64
	for i := 0; i < b.N; i++ {
		g := experiments.PacketLevel(2, experiments.MLTCPRenoFactory(400*sim.Millisecond),
			"mltcp-reno", 60*sim.Second, 0)
		l := experiments.PacketLevel(2, experiments.MLTCPRenoLearnedFactory(100*sim.Millisecond),
			"mltcp-reno-learned", 60*sim.Second, 0)
		given = g.SteadyAvg[0].Seconds() / g.Ideal.Seconds()
		learned = l.SteadyAvg[0].Seconds() / l.Ideal.Seconds()
	}
	b.ReportMetric(given, "given-slowdown")
	b.ReportMetric(learned, "learned-slowdown")
}

// BenchmarkAblationSlopeIntercept sweeps Equation 2's parameters and
// reports the analytic gradient-descent convergence iteration for each,
// relative to the paper's defaults.
func BenchmarkAblationSlopeIntercept(b *testing.B) {
	params := []struct{ slope, intercept float64 }{
		{0.5, 0.25}, {1.0, 0.25}, {1.75, 0.25}, {3.0, 0.25}, {1.75, 0.05}, {1.75, 1.0},
	}
	var defaultIters float64
	for i := 0; i < b.N; i++ {
		for _, pc := range params {
			p := analysis.Params{Slope: pc.slope, Intercept: pc.intercept,
				Alpha: 1.0 / 9, Period: 1800 * sim.Millisecond}
			traj := p.Descend(20*sim.Millisecond, 200)
			it := p.ConvergenceIteration(traj, sim.Millisecond)
			if pc.slope == core.DefaultSlope && pc.intercept == core.DefaultIntercept {
				defaultIters = float64(it)
			}
		}
	}
	b.ReportMetric(defaultIters, "default-converge-iters")
}

// BenchmarkMultiBottleneck reports the long job's slowdown in the
// parking-lot chain (extension beyond the paper's single bottleneck).
func BenchmarkMultiBottleneck(b *testing.B) {
	var long float64
	for i := 0; i < b.N; i++ {
		res := experiments.MultiBottleneck(
			experiments.MLTCPRenoFactory(400*sim.Millisecond), 90*sim.Second)
		long = res.SteadyAvg[0].Seconds() / res.Ideal.Seconds()
	}
	b.ReportMetric(long, "long-job-slowdown")
}

// BenchmarkMultiJobGradientDescent reports the analytic N-job descent's
// convergence iteration (§5's higher-dimensional gradient view).
func BenchmarkMultiJobGradientDescent(b *testing.B) {
	m := analysis.MultiParams{
		Params: analysis.DefaultParams(1.0/9, 1800*sim.Millisecond),
		N:      3,
	}
	var conv int
	for i := 0; i < b.N; i++ {
		offs := []sim.Time{0, 15 * sim.Millisecond, 30 * sim.Millisecond}
		traj := m.DescendMulti(offs, 150)
		conv = m.ConvergenceIterationMulti(traj, sim.Millisecond)
	}
	b.ReportMetric(float64(conv), "converged-at-iter")
}

// BenchmarkCollectiveRing reports the steady-state slowdown of two
// 2-worker ring-allreduce MLTCP jobs sharing the bottleneck — the paper's
// testbed arrangement run through a real collective layer.
func BenchmarkCollectiveRing(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		net := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
			HostPairs: 2, HostRate: 5 * units.Gbps, BottleneckRate: 500 * units.Mbps,
			HostDelay: 10 * sim.Microsecond, BottleneckDelay: 30 * sim.Microsecond,
		})
		sel := collective.DefaultSelector(400 * sim.Millisecond)
		mk := func(pair int, base netsim.FlowID) *collective.Job {
			ring := collective.NewRing(eng, []*netsim.Host{net.Left[pair], net.Right[pair]},
				base, 12_500_000, sel.Factory(collective.ClassTraining),
				tcp.Config{DisableSlowStartAfterIdle: true})
			ring.Pipelined(true)
			return &collective.Job{Ring: ring, Compute: 1600 * sim.Millisecond}
		}
		j1, j2 := mk(0, 1), mk(1, 100)
		j1.Start(eng, 0, 1)
		j2.Start(eng, 10*sim.Millisecond, 2)
		eng.RunUntil(220 * sim.Second)
		n := len(j1.IterDurations)
		slow = j1.AvgIterTime(n-10).Seconds() / 1.81
	}
	b.ReportMetric(slow, "steady-slowdown-vs-ideal")
}

// BenchmarkSweepSerialVsParallel runs the slope/intercept ablation grid
// serially and on a worker per CPU. On a multi-core machine the parallel
// variant's ns/op drops toward serial/cores — the internal/harness speedup
// that keeps growing sweeps from growing wall-clock time. Both report the
// same deterministic results (asserted by the determinism tests).
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := experiments.SlopeInterceptSweepWorkers(10*sim.Millisecond, 1); len(pts) != 7 {
				b.Fatal("bad result")
			}
		}
	})
	b.Run("workers=max", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pts := experiments.SlopeInterceptSweepWorkers(10*sim.Millisecond, 0); len(pts) != 7 {
				b.Fatal("bad result")
			}
		}
	})
}

// BenchmarkFCTGridParallel runs the full scheme × load FCT matrix through
// the harness at one worker per CPU — the heaviest grid in the suite and
// the one that gains most from the pool.
func BenchmarkFCTGridParallel(b *testing.B) {
	var grid []experiments.FCTGridPoint
	for i := 0; i < b.N; i++ {
		grid = experiments.FCTGrid(nil, []float64{0.4, 0.6}, 10*sim.Second, 42, 0)
	}
	b.ReportMetric(float64(len(grid)), "grid-cells")
}

// BenchmarkScalability reports the centralized optimizer's wall time and
// MLTCP's convergence iteration at the largest swept job count.
func BenchmarkScalability(b *testing.B) {
	var pts []experiments.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.Scalability(nil)
	}
	last := pts[len(pts)-1]
	b.ReportMetric(float64(last.N), "jobs")
	b.ReportMetric(last.OptimizerWall.Seconds()*1e6, "optimizer-µs")
	b.ReportMetric(float64(last.MLTCPConvergedAt), "mltcp-converged-at")
}

// BenchmarkFCTBaselines reports the canonical short-flow FCT ordering on
// conventional websearch traffic, validating the pFabric/DCTCP baselines.
func BenchmarkFCTBaselines(b *testing.B) {
	var reno, dctcp, pfabric float64
	for i := 0; i < b.N; i++ {
		reno = experiments.RunFCT(experiments.FCTReno, 0.6, 20*sim.Second, 42).ShortMeanMS
		dctcp = experiments.RunFCT(experiments.FCTDCTCP, 0.6, 20*sim.Second, 42).ShortMeanMS
		pfabric = experiments.RunFCT(experiments.FCTPFabric, 0.6, 20*sim.Second, 42).ShortMeanMS
	}
	b.ReportMetric(reno, "reno-short-ms")
	b.ReportMetric(dctcp, "dctcp-short-ms")
	b.ReportMetric(pfabric, "pfabric-short-ms")
}

// BenchmarkMixedTraffic reports MLTCP jobs' steady slowdown with 10%
// conventional background traffic sharing the bottleneck.
func BenchmarkMixedTraffic(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := experiments.MixedTraffic(0.10, 60*sim.Second, 9)
		worst = 0
		for _, s := range res.JobSteady {
			if v := s.Seconds() / res.JobIdeal.Seconds(); v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "worst-job-slowdown")
}

// BenchmarkAblationBarrierVsPipelined compares the collective layer's two
// synchronization modes on one isolated 2-worker job: strict per-step
// barriers vs NCCL-style pipelined streaming.
func BenchmarkAblationBarrierVsPipelined(b *testing.B) {
	run := func(pipelined bool) float64 {
		eng := sim.New()
		net := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
			HostPairs: 1, HostRate: 5 * units.Gbps, BottleneckRate: 500 * units.Mbps,
			HostDelay: 10 * sim.Microsecond, BottleneckDelay: 30 * sim.Microsecond,
			BottleneckQueue: func() netsim.Queue {
				return netsim.NewDropTail(512 * netsim.DefaultMTU)
			},
		})
		sel := collective.DefaultSelector(400 * sim.Millisecond)
		ring := collective.NewRing(eng, []*netsim.Host{net.Left[0], net.Right[0]},
			1, 12_500_000, sel.Factory(collective.ClassTraining),
			tcp.Config{DisableSlowStartAfterIdle: true})
		ring.Pipelined(pipelined)
		j := &collective.Job{Ring: ring, Compute: 1600 * sim.Millisecond}
		j.Start(eng, 0, 1)
		eng.RunUntil(40 * sim.Second)
		return j.AvgIterTime(3).Seconds()
	}
	var barrier, pipelined float64
	for i := 0; i < b.N; i++ {
		barrier = run(false)
		pipelined = run(true)
	}
	b.ReportMetric(barrier, "barrier-iter-s")
	b.ReportMetric(pipelined, "pipelined-iter-s")
}

// BenchmarkNoiseRobustness reports the centralized-vs-MLTCP slowdown gap
// under 40ms compute noise (the deployability argument quantified).
func BenchmarkNoiseRobustness(b *testing.B) {
	var central, ml float64
	for i := 0; i < b.N; i++ {
		pts := experiments.NoiseRobustness([]sim.Time{40 * sim.Millisecond}, 300*sim.Second)
		central = pts[0].CentralizedSlowdown
		ml = pts[0].MLTCPSlowdown
	}
	b.ReportMetric(central, "centralized-slowdown")
	b.ReportMetric(ml, "mltcp-slowdown")
}

// BenchmarkChurn reports per-scheme mean slowdown under job churn.
func BenchmarkChurn(b *testing.B) {
	agg := core.Default()
	var ml, reno, srpt float64
	for i := 0; i < b.N; i++ {
		ml = experiments.Churn("mltcp", fluid.WeightedShare{}, &agg, 6, 60, 3).MeanSlowdown
		reno = experiments.Churn("reno", fluid.WeightedShare{}, nil, 6, 60, 3).MeanSlowdown
		srpt = experiments.Churn("srpt", fluid.SRPT{}, nil, 6, 60, 3).MeanSlowdown
	}
	b.ReportMetric(ml, "mltcp-mean-slowdown")
	b.ReportMetric(reno, "reno-mean-slowdown")
	b.ReportMetric(srpt, "srpt-mean-slowdown")
}
