// Command mltcp-figures regenerates every figure and claim from the
// paper's evaluation. Each figure prints its data series as a table or CSV
// plus an ASCII chart, so results can be inspected in a terminal or piped
// into a plotting tool.
//
// Usage:
//
//	mltcp-figures -fig all        # everything
//	mltcp-figures -fig 2c         # one panel
//	mltcp-figures -fig 3 -csv     # CSV series on stdout
//
// Figures: 1, 2a, 2b, 2c, 3, 4, 5, 6, noise, fairness, multires, sweep,
// scale, fct, mixed, robust, churn, compare, hetero, cluster, learned.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/core"
	"mltcp/internal/experiments"
	"mltcp/internal/learn"
	"mltcp/internal/multires"
	"mltcp/internal/report"
	"mltcp/internal/sim"
	"mltcp/internal/svgplot"
	"mltcp/internal/telemetry"
	"mltcp/internal/trace"
)

var (
	figFlag  = flag.String("fig", "all", "figure to regenerate (see -fig help for the list)")
	csvFlag  = flag.Bool("csv", false, "emit CSV series instead of tables/charts")
	svgDir   = flag.String("svgdir", "", "also write each figure as an SVG file into this directory")
	reportF  = flag.String("report", "", "write a full Markdown paper-vs-measured report to this file and exit")
	workers  = flag.Int("workers", 0, "worker goroutines for grid figures (sweep, scale, fct, robust); 0 = one per CPU")
	scenario = flag.String("scenario", "examples/scenarios/hetero.json", "scenario file for the hetero figure")
)

// saveSVG writes a chart into -svgdir (no-op when unset).
func saveSVG(name string, chart *svgplot.Chart) {
	if *svgDir == "" {
		return
	}
	if err := os.MkdirAll(*svgDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(*svgDir, name+".svg"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := chart.Render(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", f.Name())
}

func toSVGSeries(ts []trace.Series) []svgplot.Series {
	out := make([]svgplot.Series, len(ts))
	for i, s := range ts {
		out[i] = svgplot.Series{Name: s.Name, Y: s.Values}
	}
	return out
}

func main() {
	flag.Parse()
	if *reportF != "" {
		f, err := os.Create(*reportF)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.Generate(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *reportF)
		return
	}
	figs := map[string]func(){
		"1":        fig1,
		"2a":       func() { fig2(experiments.Fig2Centralized()) },
		"2b":       func() { fig2(experiments.Fig2SRPT()) },
		"2c":       func() { fig2(experiments.Fig2MLTCP()) },
		"3":        fig3,
		"4":        fig4,
		"5":        fig5,
		"6":        fig6,
		"noise":    noise,
		"fairness": fairness,
		"multires": multiRes,
		"sweep":    sweep,
		"scale":    scale,
		"fct":      fct,
		"mixed":    mixed,
		"robust":   robust,
		"churn":    churn,
		"compare":  compare,
		"hetero":   hetero,
		"cluster":  cluster,
		"learned":  learned,
	}
	var keys []string
	for k := range figs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *figFlag == "all" {
		for _, k := range keys {
			fmt.Printf("\n===== Figure/claim %s =====\n", k)
			figs[k]()
		}
		return
	}
	fn, ok := figs[*figFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q (valid: %s, all)\n",
			*figFlag, strings.Join(keys, ", "))
		os.Exit(2)
	}
	fn()
}

func fig1() {
	res := experiments.Fig1()
	var series []trace.Series
	xs := make([]float64, len(res.Demand[0]))
	for i := range xs {
		xs[i] = (sim.Time(i) * res.Bucket).Seconds()
	}
	for i, name := range res.Names {
		vals := make([]float64, len(res.Demand[i]))
		for k, r := range res.Demand[i] {
			vals[k] = float64(r) / 1e9
		}
		series = append(series, trace.Series{Name: name, Values: vals})
	}
	if *csvFlag {
		trace.WriteCSV(os.Stdout, "time_s", xs, series...)
		return
	}
	for _, s := range series {
		fmt.Print(trace.Chart("Fig 1: "+s.Name+" isolated demand (Gbps)", 72, 8, s))
	}
}

func fig2(res experiments.Fig2Result) {
	fmt.Printf("Fig 2 (%s): steady-state iteration times\n", res.Scheme)
	var rows [][]string
	for _, j := range res.Jobs {
		rows = append(rows, []string{
			j.Name,
			fmt.Sprintf("%.3f", j.AvgIter.Seconds()),
			fmt.Sprintf("%.3f", j.Ideal.Seconds()),
			fmt.Sprintf("%.2f×", j.Slowdown),
		})
	}
	fmt.Print(trace.Table([]string{"job", "avg iter (s)", "ideal (s)", "slowdown"}, rows))
	if res.ConvergedAt >= 0 {
		fmt.Printf("converged to within 5%% of ideal at iteration %d\n", res.ConvergedAt)
	}
	if *csvFlag {
		var series []trace.Series
		n := 0
		for _, j := range res.Jobs {
			bw := res.Bandwidth[j.Name]
			vals := make([]float64, len(bw))
			for i, r := range bw {
				vals[i] = float64(r) / 1e9
			}
			if len(vals) > n {
				n = len(vals)
			}
			series = append(series, trace.Series{Name: j.Name + "_gbps", Values: vals})
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = (sim.Time(i) * res.Bucket).Seconds()
		}
		trace.WriteCSV(os.Stdout, "time_s", xs, series...)
		return
	}
	var series []trace.Series
	for _, j := range res.Jobs {
		bw := res.Bandwidth[j.Name]
		n := len(bw)
		if n > 200 {
			bw = bw[n-200:] // show the converged window
		}
		vals := make([]float64, len(bw))
		for i, r := range bw {
			vals[i] = float64(r) / 1e9
		}
		series = append(series, trace.Series{Name: j.Name, Values: vals})
	}
	fmt.Print(trace.Chart("bandwidth allocation, last 10s (Gbps)", 100, 10, series...))
	saveSVG("fig2-"+res.Scheme, &svgplot.Chart{
		Title:  "Fig 2 (" + res.Scheme + "): bandwidth allocation, last 10s",
		XLabel: "bucket (50ms)", YLabel: "Gbps",
		Series: toSVGSeries(series),
	})
}

func fig3() {
	res := experiments.Fig3()
	var series []trace.Series
	for i, name := range res.Functions {
		series = append(series, trace.Series{Name: name, Values: res.IterTimeMS[i]})
	}
	if *csvFlag {
		xs := make([]float64, experiments.Fig3Iterations)
		for i := range xs {
			xs[i] = float64(i)
		}
		trace.WriteCSV(os.Stdout, "iteration", xs, series...)
		return
	}
	fmt.Printf("Fig 3: avg iteration time (ms) vs iteration number; ideal = %.0fms\n", res.IdealMS)
	fmt.Print(trace.Chart("aggressiveness functions", 100, 12, series...))
	saveSVG("fig3", &svgplot.Chart{
		Title: "Fig 3: aggressiveness functions", XLabel: "iteration", YLabel: "avg iteration (ms)",
		Series: toSVGSeries(series),
	})
	for i, name := range res.Functions {
		last := res.IterTimeMS[i][len(res.IterTimeMS[i])-1]
		fmt.Printf("  %s: final %.0fms (%+.1f%% vs ideal)\n", name, last, (last/res.IdealMS-1)*100)
	}
}

func fig4() {
	res := experiments.Fig4()
	fmt.Printf("Fig 4: six GPT-2 jobs — tail (p99) iteration-time speedup %.2f×, median %.2f×\n",
		res.TailSpeedup, res.MedianSpeedup)
	if *csvFlag {
		var xs []float64
		var reno, ml trace.Series
		reno.Name, ml.Name = "reno_cdf", "mltcp_cdf"
		for _, p := range res.RenoCDF {
			xs = append(xs, p.Value)
			reno.Values = append(reno.Values, p.Fraction)
		}
		for _, p := range res.MLTCPCDF {
			ml.Values = append(ml.Values, p.Fraction)
		}
		trace.WriteCSV(os.Stdout, "iter_ms", xs, reno, ml)
		return
	}
	renoVals := make([]float64, len(res.RenoCDF))
	for i, p := range res.RenoCDF {
		renoVals[i] = p.Value
	}
	mlVals := make([]float64, len(res.MLTCPCDF))
	for i, p := range res.MLTCPCDF {
		mlVals[i] = p.Value
	}
	fmt.Print(trace.Chart("Fig 4c: iteration time (ms), sorted (CDF x-axis)", 100, 10,
		trace.Series{Name: "reno", Values: renoVals},
		trace.Series{Name: "mltcp", Values: mlVals}))
	renoCDF := svgplot.Series{Name: "reno"}
	for _, pt := range res.RenoCDF {
		renoCDF.X = append(renoCDF.X, pt.Value)
		renoCDF.Y = append(renoCDF.Y, pt.Fraction)
	}
	mlCDF := svgplot.Series{Name: "mltcp"}
	for _, pt := range res.MLTCPCDF {
		mlCDF.X = append(mlCDF.X, pt.Value)
		mlCDF.Y = append(mlCDF.Y, pt.Fraction)
	}
	saveSVG("fig4c", &svgplot.Chart{
		Title: "Fig 4c: CDF of iteration times", XLabel: "iteration time (ms)", YLabel: "CDF",
		Series: []svgplot.Series{renoCDF, mlCDF},
	})
}

func fig5() {
	res := experiments.Fig5()
	if *csvFlag {
		trace.WriteCSV(os.Stdout, "delta_s", res.DeltaSec, trace.Series{Name: "loss", Values: res.Loss})
		return
	}
	fmt.Printf("Fig 5c: MLTCP loss function (a=1/2, T=%.1fs); minimum at Δ=%.2fs (T/2=%.2fs)\n",
		res.Params.Period.Seconds(), res.MinDeltaSec, res.Params.Period.Seconds()/2)
	fmt.Print(trace.Chart("Loss(Δ)", 90, 12, trace.Series{Name: "loss", Values: res.Loss}))
	saveSVG("fig5c", &svgplot.Chart{
		Title: "Fig 5c: MLTCP loss function (a=1/2)", XLabel: "Δ (s)", YLabel: "Loss",
		Series: []svgplot.Series{{Name: "loss", X: res.DeltaSec, Y: res.Loss}},
	})
}

func fig6() {
	res := experiments.Fig6()
	fmt.Printf("Fig 6: two GPT-2 jobs sliding into interleaving; disjoint from iteration %d\n", res.InterleavedAt)
	if *csvFlag {
		xs := make([]float64, len(res.DeltaSec))
		for i := range xs {
			xs[i] = float64(i)
		}
		trace.WriteCSV(os.Stdout, "iteration", xs,
			trace.Series{Name: "delta_s", Values: res.DeltaSec})
		return
	}
	fmt.Print(trace.Chart("start-time difference Δ (s) per iteration; comm duration "+
		fmt.Sprintf("%.2fs", res.CommDurSec), 90, 10,
		trace.Series{Name: "delta", Values: res.DeltaSec}))
	saveSVG("fig6", &svgplot.Chart{
		Title: "Fig 6: sliding into interleaving", XLabel: "iteration", YLabel: "Δ (s)",
		Series: []svgplot.Series{{Name: "delta", Y: res.DeltaSec}},
	})
}

func noise() {
	res := experiments.NoiseBound(3)
	fmt.Println("§4 noise bound: steady-state error std vs 2σ(1+I/S)")
	var rows [][]string
	for i := range res.SigmaMS {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", res.SigmaMS[i]),
			fmt.Sprintf("%.1f", res.MeasuredMS[i]),
			fmt.Sprintf("%.1f", res.BoundMS[i]),
		})
	}
	fmt.Print(trace.Table([]string{"σ (ms)", "measured (ms)", "bound (ms)"}, rows))
}

func fairness() {
	res := experiments.Fairness(60 * sim.Second)
	fmt.Println("§5 fairness: single-flow goodput vs loss probability (Mbps)")
	var rows [][]string
	for i, p := range res.LossProbs {
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", p),
			fmt.Sprintf("%.1f", res.RenoMbps[i]),
			fmt.Sprintf("%.1f", res.MLTCPMbps[i]),
		})
	}
	fmt.Print(trace.Table([]string{"loss p", "reno", "mltcp-reno"}, rows))
	fmt.Printf("fitted exponents: reno %.2f, mltcp %.2f; advantage ratio %.2f×\n",
		res.RenoExponent, res.MLTCPExponent, res.AdvantageRatio)
	fmt.Printf("coexistence: mltcp/reno share %.2f×; reno at %.0f%% of fair half (not starved)\n",
		res.ShareRatio, res.RenoShareOfFair*100)
}

func multiRes() {
	agg := core.Default()
	mk := func(name string, off sim.Time, a *core.AggFunc) *multires.Task {
		return &multires.Task{Name: name, WorkUnits: 3.2, IdleTime: 800 * sim.Millisecond, StartOffset: off, Agg: a}
	}
	run := func(a *core.AggFunc) []*multires.Task {
		tasks := []*multires.Task{mk("t1", 0, a), mk("t2", 10*sim.Millisecond, a), mk("t3", 20*sim.Millisecond, a)}
		multires.NewScheduler(8, tasks).Run(120 * sim.Second)
		return tasks
	}
	fmt.Println("§5 multi-resource: three CPU tasks (3.2 core-s work + 0.8s idle on 8 cores; ideal iteration 1.2s)")
	var rows [][]string
	fair := run(nil)
	prog := run(&agg)
	for i := range fair {
		rows = append(rows, []string{
			fair[i].Name,
			fmt.Sprintf("%.3f", fair[i].AvgIterTime(20).Seconds()),
			fmt.Sprintf("%.3f", prog[i].AvgIterTime(20).Seconds()),
		})
	}
	fmt.Print(trace.Table([]string{"task", "fair share (s)", "progress-weighted (s)"}, rows))
}

func sweep() {
	pts := experiments.SlopeInterceptSweep(10*sim.Millisecond, *workers)
	fmt.Println("ablation: Equation 2 constants vs convergence (3 GPT-2 jobs, 10ms noise)")
	var rows [][]string
	for _, p := range pts {
		conv := fmt.Sprintf("%d", p.ConvergedAt)
		if p.ConvergedAt < 0 {
			conv = "never"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Slope),
			fmt.Sprintf("%.2f", p.Intercept),
			conv,
			fmt.Sprintf("%.3f", p.SteadySlowdown),
		})
	}
	fmt.Print(trace.Table([]string{"slope", "intercept", "converged at", "steady slowdown"}, rows))
}

func scale() {
	pts := experiments.Scalability(nil, *workers)
	fmt.Println("scalability: centralized optimizer cost vs MLTCP distributed convergence")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.N),
			p.OptimizerWall.Round(time.Microsecond).String(),
			fmt.Sprintf("%v", p.OptimizerInterleaved),
			fmt.Sprintf("%d", p.MLTCPConvergedAt),
			fmt.Sprintf("%.3f", p.MLTCPSlowdown),
		})
	}
	fmt.Print(trace.Table([]string{"jobs", "optimizer wall", "interleaved", "mltcp converged at", "mltcp slowdown"}, rows))
}

func fct() {
	fmt.Println("baseline validation: flow completion times on websearch traffic (load 0.6)")
	var rows [][]string
	grid := experiments.FCTGrid(nil, []float64{0.6}, 20*sim.Second, 42, *workers)
	for _, r := range grid {
		rows = append(rows, []string{
			r.Scheme,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%.1f", r.ShortMeanMS),
			fmt.Sprintf("%.1f", r.ShortP99MS),
			fmt.Sprintf("%.0f", r.LargeMeanMS),
		})
	}
	fmt.Print(trace.Table([]string{"scheme", "flows", "short mean (ms)", "short p99 (ms)", "large mean (ms)"}, rows))
}

func mixed() {
	const mixedSeed = 9 // root seed for the background-traffic arrival process
	res := experiments.MixedTraffic(0.10, 60*sim.Second, mixedSeed)
	fmt.Println("mixed traffic: 2 MLTCP jobs + 10% websearch background on one bottleneck")
	fmt.Printf("  job steady iterations: %.3fs / %.3fs (no-contention ideal %.3fs)\n",
		res.JobSteady[0].Seconds(), res.JobSteady[1].Seconds(), res.JobIdeal.Seconds())
	fmt.Printf("  background: %d/%d flows completed, short-flow mean FCT %.1fms\n",
		res.BackgroundCompleted, res.BackgroundStarted, res.BackgroundShortMeanMS)
}

func robust() {
	pts := experiments.NoiseRobustness(nil, 0, *workers)
	fmt.Println("robustness: static centralized schedule vs MLTCP under compute noise")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.SigmaMS),
			fmt.Sprintf("%.3f", p.CentralizedSlowdown),
			fmt.Sprintf("%.3f", p.MLTCPSlowdown),
		})
	}
	fmt.Print(trace.Table([]string{"sigma (ms)", "centralized slowdown", "mltcp slowdown"}, rows))
}

func churn() {
	fmt.Println("job churn: 1 GPT-3 + 5 GPT-2 jobs arriving over 60s, 60 iterations each")
	var rows [][]string
	const churnSeed = 3 // shared root seed: identical arrival pattern across schemes
	for _, c := range []experiments.ChurnResult{
		experiments.Churn("mltcp", 6, 60, churnSeed),
		experiments.Churn("reno", 6, 60, churnSeed),
		experiments.Churn("srpt", 6, 60, churnSeed),
	} {
		rows = append(rows, []string{
			c.Scheme,
			fmt.Sprintf("%d", c.Jobs),
			fmt.Sprintf("%.3f", c.MeanSlowdown),
			fmt.Sprintf("%.3f", c.P95Slowdown),
			fmt.Sprintf("%.3f", c.MaxSlowdown),
		})
	}
	fmt.Print(trace.Table([]string{"scheme", "jobs done", "mean slowdown", "p95", "worst"}, rows))
}

// hetero runs the heterogeneous example scenario (-scenario) on the packet
// backend with telemetry enabled, prints the traced summary, and renders
// the per-flow congestion-window evolution from the trace events. It skips
// gracefully when the scenario file is absent (e.g. -fig all from outside
// the repo root).
func hetero() {
	f, err := os.Open(*scenario)
	if err != nil {
		fmt.Printf("hetero: scenario %s not found, skipping (run from the repo root or pass -scenario)\n", *scenario)
		return
	}
	scn, err := config.Load(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	res, err := (&backend.Packet{}).Run(ctx, &scn, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("hetero: %s traced end-to-end on the packet backend (%d events)\n",
		scn.Name, buf.Len())
	var rows [][]string
	for _, j := range res.Jobs {
		rows = append(rows, []string{
			j.Name,
			fmt.Sprintf("%d", j.Iterations()),
			fmt.Sprintf("%.3f", j.SteadyIter(10).Seconds()),
			fmt.Sprintf("%.3f", j.Ideal.Seconds()),
			fmt.Sprintf("%.2f×", j.Slowdown(10)),
		})
	}
	fmt.Print(trace.Table([]string{"job", "iters", "avg iter (s)", "ideal (s)", "slowdown"}, rows))
	fmt.Printf("overlap=%.3f interleaved-at=%d retransmits=%d drops=%d\n",
		res.OverlapScore, res.InterleavedAt,
		reg.Counter("tcp.retransmits").Value(), reg.Counter("net.drops").Value())

	// Per-flow cwnd evolution from the trace's cwnd events.
	cwnd := map[int][]float64{}
	for _, e := range buf.Events() {
		if e.Kind == telemetry.KindCwnd {
			cwnd[e.Flow] = append(cwnd[e.Flow], e.V0)
		}
	}
	var flows []int
	for fl := range cwnd {
		flows = append(flows, fl)
	}
	sort.Ints(flows)
	var series []trace.Series
	for _, fl := range flows {
		name := fmt.Sprintf("flow %d", fl)
		if fl-1 < len(res.Jobs) {
			name = res.Jobs[fl-1].Name
		}
		series = append(series, trace.Series{Name: name, Values: cwnd[fl]})
	}
	fmt.Print(trace.Chart("cwnd evolution (packets)", 100, 10, series...))
	saveSVG("hetero-cwnd", &svgplot.Chart{
		Title:  "Heterogeneous scenario: per-flow cwnd from telemetry trace",
		XLabel: "cwnd sample (50ms min spacing)", YLabel: "cwnd (packets)",
		Series: toSVGSeries(series),
	})
}

// cluster runs the standard 100-job Poisson fat-tree trace — the
// cluster-scale setting where per-bottleneck self-interleaving has to add
// up to a fabric-wide effect — once per scheme and reports the pairwise
// overlap split by whether the two jobs share a fabric link. MLTCP should
// drive the shared-pair overlap below plain reno's; disjoint pairs never
// contend and serve as the control group.
func cluster() {
	scn := experiments.ClusterScenario(experiments.ClusterOpts{Seed: 11})
	var rows [][]string
	for pi, policy := range []string{"mltcp", "reno"} {
		s := *scn
		s.Policy = policy
		res, err := (&backend.Fluid{}).Run(context.Background(), &s, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		c := res.Cluster
		if pi == 0 {
			fmt.Printf("cluster: %s — %d jobs on %s (%d racks, %d links)\n",
				scn.Name, len(res.Jobs), c.Topology, c.Racks, c.Links)
		}
		departed := 0
		for i, j := range res.Jobs {
			if j.Iterations() >= s.Jobs[i].Iters {
				departed++
			}
		}
		rows = append(rows, []string{
			policy,
			fmt.Sprintf("%d", c.SharingPairs),
			fmt.Sprintf("%.3f", c.SharedOverlap),
			fmt.Sprintf("%d", c.DisjointPairs),
			fmt.Sprintf("%.3f", c.DisjointOverlap),
			fmt.Sprintf("%d/%d", departed, len(res.Jobs)),
		})
	}
	fmt.Print(trace.Table([]string{"scheme", "sharing pairs", "shared overlap",
		"disjoint pairs", "disjoint overlap", "departed"}, rows))
}

// compare runs the canonical two-job scenario at both fidelities through
// the backend interface and prints their agreement — the cross-fidelity
// validation of the fluid weighted-share abstraction.
func compare() {
	fmt.Println("cross-fidelity: canonical 2×GPT-2 MLTCP scenario, fluid vs packet backend")
	res, err := experiments.CrossFidelityCanonical(context.Background(), 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var rows [][]string
	for i := range res.Fluid.Jobs {
		rows = append(rows, []string{
			res.Fluid.Jobs[i].Name,
			fmt.Sprintf("%.3f", res.Fluid.Jobs[i].Slowdown(20)),
			fmt.Sprintf("%.3f", res.Packet.Jobs[i].Slowdown(20)),
			fmt.Sprintf("%.4f", res.SlowdownGap[i]),
			fmt.Sprintf("%.5f", res.BytesPerIterGap[i]),
		})
	}
	fmt.Print(trace.Table([]string{"job", "fluid slowdown", "packet slowdown", "gap", "bytes gap"}, rows))
	fmt.Printf("overlap score: fluid %.3f, packet %.3f (gap %.3f); interleaved at iter %d vs %d\n",
		res.Fluid.OverlapScore, res.Packet.OverlapScore, res.OverlapGap,
		res.Fluid.InterleavedAt, res.Packet.InterleavedAt)
}

// learned evaluates the learned backend against the fluid simulation on
// its tracked scenarios (the canonical 2×GPT-2 dumbbell and the quick
// cluster trace) — the third-fidelity analogue of compare — and renders
// the predicted-vs-simulated per-job slowdown scatter.
func learned() {
	fmt.Println("learned backend: predicted vs fluid-simulated steady-state slowdowns")
	cmps, err := experiments.LearnedEval(context.Background(), nil, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	type pt struct{ exact, pred float64 }
	var pts []pt
	var rows [][]string
	for _, c := range cmps {
		for i := range c.Exact.Jobs {
			e := c.Exact.Jobs[i].Slowdown(learn.SteadySkip)
			p := c.Learned.Jobs[i].Slowdown(learn.SteadySkip)
			pts = append(pts, pt{e, p})
			rows = append(rows, []string{
				c.Scenario,
				c.Exact.Jobs[i].Name,
				fmt.Sprintf("%.3f", e),
				fmt.Sprintf("%.3f", p),
				fmt.Sprintf("%.4f", c.RelErr[i]),
			})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].exact < pts[b].exact })
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	lo, hi := 0.0, 1.0
	for i, p := range pts {
		xs[i], ys[i] = p.exact, p.pred
		if i == 0 || p.exact < lo {
			lo = p.exact
		}
		if p.exact > hi {
			hi = p.exact
		}
		if p.pred > hi {
			hi = p.pred
		}
	}
	if *csvFlag {
		trace.WriteCSV(os.Stdout, "fluid_slowdown", xs,
			trace.Series{Name: "learned_slowdown", Values: ys})
		return
	}
	fmt.Print(trace.Table([]string{"scenario", "job", "fluid", "learned", "rel err"}, rows))
	for _, c := range cmps {
		fmt.Printf("%s: mean err %.3f, max err %.3f, overlap gap %.3f\n",
			c.Scenario, c.MeanRelErr, c.MaxRelErr, c.OverlapGap)
	}
	fmt.Print(trace.Chart("predicted slowdown vs fluid (jobs sorted by fluid slowdown)", 90, 10,
		trace.Series{Name: "fluid", Values: xs},
		trace.Series{Name: "learned", Values: ys}))
	saveSVG("learned", &svgplot.Chart{
		Title:  "Learned backend: predicted vs simulated slowdown",
		XLabel: "fluid slowdown", YLabel: "predicted slowdown",
		Series: []svgplot.Series{
			{Name: "jobs", X: xs, Y: ys},
			{Name: "y=x", X: []float64{lo, hi}, Y: []float64{lo, hi}},
		},
	})
}
