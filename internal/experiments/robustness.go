package experiments

import (
	"context"

	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/harness"
	"mltcp/internal/metrics"
	"mltcp/internal/sched"
	"mltcp/internal/sim"
	"mltcp/internal/workload"
)

// RobustnessPoint compares, at one noise level, a static centralized
// schedule against MLTCP on the four-job workload.
type RobustnessPoint struct {
	SigmaMS float64
	// CentralizedSlowdown and MLTCPSlowdown are the worst job's
	// steady-state slowdown under each approach.
	CentralizedSlowdown float64
	MLTCPSlowdown       float64
}

// NoiseRobustness quantifies §2's deployability argument: a centralized
// schedule is computed once from profiled demands, but zero-mean compute
// noise makes each job's phase random-walk away from its assigned offset
// (variance grows with every iteration), so the static schedule's
// interleaving decays into collisions. MLTCP re-applies its restoring
// force every iteration and holds near the ideal. Cassini would have to
// re-profile and re-solve continuously to match — "they also rely on
// accurate profiling of the network demands". Sigma points run on a pool
// of workers (<= 0 means one per CPU). The centralized schedule is
// optimized once up front and shared read-only; each sigma point's jobs
// carry explicit seeds, so results are identical for every worker count.
func NoiseRobustness(sigmas []sim.Time, horizon sim.Time, workers int) []RobustnessPoint {
	if len(sigmas) == 0 {
		sigmas = []sim.Time{0, 10 * sim.Millisecond, 20 * sim.Millisecond, 40 * sim.Millisecond}
	}
	if horizon == 0 {
		horizon = 300 * sim.Second
	}
	shapes := []sched.Shape{
		sched.ShapeOf(workload.GPT3, LinkCapacity),
		sched.ShapeOf(workload.GPT2, LinkCapacity),
		sched.ShapeOf(workload.GPT2, LinkCapacity),
		sched.ShapeOf(workload.GPT2, LinkCapacity),
	}
	opt := sched.Optimize(shapes, sched.Options{Seed: 1})

	return harness.Map(context.Background(), harness.Config{Workers: workers},
		len(sigmas), func(pt harness.Point) RobustnessPoint {
			sigma := sigmas[pt.Index]
			p := RobustnessPoint{SigmaMS: sigma.Seconds() * 1000}
			p.CentralizedSlowdown = worstSlowdown(runNoisy(nil, opt.Offsets, sigma, horizon))
			p.MLTCPSlowdown = worstSlowdown(runNoisy(defaultAgg(), nil, sigma, horizon))
			return p
		})
}

func runNoisy(agg *core.AggFunc, offsets []sim.Time, sigma, horizon sim.Time) []*fluid.Job {
	jobs := fourJobs(agg, offsets)
	for i, j := range jobs {
		j.Spec.NoiseStd = sigma
		j.Spec.Seed = uint64(i + 1)
	}
	s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: fluid.WeightedShare{}}, jobs)
	s.Run(horizon)
	return jobs
}

// worstSlowdown measures each job's mean iteration time over the last
// third of its run against its ideal and returns the worst ratio.
func worstSlowdown(jobs []*fluid.Job) float64 {
	worst := 0.0
	for _, j := range jobs {
		n := len(j.IterDurations)
		if n == 0 {
			continue
		}
		tail := metrics.FromTimes(j.IterDurations[n*2/3:])
		ideal := j.Spec.Profile.IdealIterTime(LinkCapacity).Seconds()
		if sl := tail.Mean() / ideal; sl > worst {
			worst = sl
		}
	}
	return worst
}

// ChurnResult compares schemes on a cluster with job churn: jobs arrive
// over time, train for a bounded number of iterations, and leave.
type ChurnResult struct {
	Scheme string
	// MeanSlowdown averages every completed job's mean iteration
	// slowdown (iteration time / ideal).
	MeanSlowdown float64
	// P95Slowdown is the 95th percentile across jobs.
	P95Slowdown float64
	// MaxSlowdown is the worst job's mean slowdown (SRPT's victim).
	MaxSlowdown float64
	// Jobs is how many jobs completed all their iterations.
	Jobs int
}

// Churn runs nJobs jobs (the first a GPT-3-like job, the rest GPT-2-like,
// so SRPT's size bias has a victim) whose start times are spread uniformly
// over the first spread seconds, each training for iters iterations, under
// the given policy (MLTCP weighting when agg is non-nil).
func Churn(scheme string, policy fluid.Policy, agg *core.AggFunc, nJobs, iters int, seed uint64) ChurnResult {
	rng := sim.NewRNG(seed)
	const spread = 60 // seconds over which jobs arrive
	jobs := make([]*fluid.Job, nJobs)
	for i := range jobs {
		prof := workload.GPT2
		if i == 0 {
			prof = workload.GPT3
		}
		jobs[i] = &fluid.Job{
			Spec: workload.Spec{
				Name:        jobName(i),
				Profile:     prof,
				StartOffset: sim.FromSeconds(rng.Float64() * spread),
				NoiseStd:    5 * sim.Millisecond,
				Seed:        uint64(i + 1),
			},
			Agg:           agg,
			MaxIterations: iters,
		}
	}
	s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: policy}, jobs)
	// Generous horizon: even heavily congested jobs finish.
	s.Run(sim.FromSeconds(spread) + sim.Time(iters)*4*sim.Second)

	var per metrics.Series
	res := ChurnResult{Scheme: scheme}
	for _, j := range jobs {
		if j.Iterations() < iters {
			continue // did not finish within the horizon
		}
		res.Jobs++
		ideal := j.Spec.Profile.IdealIterTime(LinkCapacity).Seconds()
		per = append(per, metrics.FromTimes(j.IterDurations).Mean()/ideal)
	}
	if len(per) > 0 {
		res.MeanSlowdown = per.Mean()
		res.P95Slowdown = per.Percentile(95)
		res.MaxSlowdown = per.Max()
	}
	return res
}
