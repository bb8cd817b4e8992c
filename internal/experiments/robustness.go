package experiments

import (
	"context"

	"mltcp/internal/config"
	"mltcp/internal/harness"
	"mltcp/internal/metrics"
	"mltcp/internal/sim"
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
// of workers (<= 0 means one per CPU). Every run uses seed 1, which fixes
// both the centralized offsets and the noise streams, so results are
// identical for every worker count.
func NoiseRobustness(sigmas []sim.Time, horizon sim.Time, workers int) []RobustnessPoint {
	if len(sigmas) == 0 {
		sigmas = []sim.Time{0, 10 * sim.Millisecond, 20 * sim.Millisecond, 40 * sim.Millisecond}
	}
	if horizon == 0 {
		horizon = 300 * sim.Second
	}
	// worst measures each job's mean iteration time over the last third
	// of its run against its ideal and returns the worst ratio.
	worst := func(policy string, sigma sim.Time) float64 {
		res := runFluid(fourJobScenario(policy, horizon.Seconds(), sigma.Seconds()*1000), 1, 0)
		w := 0.0
		for _, j := range res.Jobs {
			w = max(w, j.Slowdown(len(j.IterTimes)*2/3))
		}
		return w
	}
	return harness.Map(context.Background(), harness.Config{Workers: workers},
		len(sigmas), func(pt harness.Point) RobustnessPoint {
			sigma := sigmas[pt.Index]
			return RobustnessPoint{
				SigmaMS:             sigma.Seconds() * 1000,
				CentralizedSlowdown: worst("centralized", sigma),
				MLTCPSlowdown:       worst("mltcp", sigma),
			}
		})
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
// over the first 60 seconds, each training for iters iterations, under
// the named scenario policy. seed fixes both the arrival pattern and the
// jobs' noise streams.
func Churn(policy string, nJobs, iters int, seed uint64) ChurnResult {
	var per metrics.Series
	res := ChurnResult{Scheme: policy}
	for _, j := range runFluid(churnScenario(policy, nJobs, iters, seed), seed, 0).Jobs {
		if j.Iterations() < iters {
			continue // did not finish within the horizon
		}
		res.Jobs++
		per = append(per, j.Slowdown(0))
	}
	if len(per) > 0 {
		res.MeanSlowdown = per.Mean()
		res.P95Slowdown = per.Percentile(95)
		res.MaxSlowdown = per.Max()
	}
	return res
}

// churnScenario is Churn's scenario: nJobs jobs arriving at seeded
// random offsets.
func churnScenario(policy string, nJobs, iters int, seed uint64) *config.Scenario {
	rng := sim.NewRNG(seed)
	const spread = 60 // seconds over which jobs arrive
	noStagger := 0.0
	scn := &config.Scenario{
		Policy: policy,
		// Generous horizon: even heavily congested jobs finish.
		DurationSec: spread + float64(iters)*4,
		StaggerMS:   &noStagger, // the random arrivals break symmetry
	}
	for i := 0; i < nJobs; i++ {
		prof := "gpt2"
		if i == 0 {
			prof = "gpt3"
		}
		scn.Jobs = append(scn.Jobs, config.Job{
			Name:     jobName(i),
			Profile:  prof,
			OffsetMS: rng.Float64() * spread * 1000,
			NoiseMS:  5,
			Iters:    iters,
		})
	}
	return scn
}
