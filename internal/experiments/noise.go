package experiments

import (
	"mltcp/internal/analysis"
	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/metrics"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// NoiseResult validates §4's approximation-error bound: with zero-mean
// Gaussian noise of standard deviation sigma in the jobs' iteration times,
// the steady-state deviation of the start-time difference from the optimal
// interleaving is normal with standard deviation at most
// 2σ(1 + Intercept/Slope).
type NoiseResult struct {
	// SigmaMS are the injected noise standard deviations (ms).
	SigmaMS []float64
	// MeasuredMS is the observed steady-state error std (ms).
	MeasuredMS []float64
	// BoundMS is the theoretical bound 2σ(1 + I/S) (ms).
	BoundMS []float64
}

// halfCommProfile is the a = 1/2 job of Figure 5: with two such jobs the
// interleaved optimum is the single point Δ = T/2, so the error is simply
// the deviation from it.
var halfCommProfile = workload.Profile{
	Name:        "half-comm",
	ComputeTime: 900 * sim.Millisecond,
	CommBytes:   units.ByteCount(float64(LinkCapacity) / 8 * 0.9), // 0.9s at line rate
}

// NoiseBound regenerates the §4 noise experiment: sweep sigma, measure the
// steady-state error of two MLTCP jobs around the T/2 optimum, and compare
// with the analytical bound.
func NoiseBound(seeds int) NoiseResult {
	if seeds <= 0 {
		seeds = 3
	}
	res := NoiseResult{}
	for _, sigma := range []sim.Time{5 * sim.Millisecond, 10 * sim.Millisecond,
		20 * sim.Millisecond, 40 * sim.Millisecond, 80 * sim.Millisecond} {
		var errs metrics.Series
		for seed := 0; seed < seeds; seed++ {
			errs = append(errs, noiseRun(sigma, uint64(seed))...)
		}
		res.SigmaMS = append(res.SigmaMS, sigma.Seconds()*1000)
		res.MeasuredMS = append(res.MeasuredMS, errs.Std()*1000)
		bound := analysis.NoiseErrorStd(sigma, core.DefaultSlope, core.DefaultIntercept)
		res.BoundMS = append(res.BoundMS, bound.Seconds()*1000)
	}
	return res
}

// noiseRun returns the steady-state deviations (seconds) of the start-time
// difference from T/2 for one seeded run.
func noiseRun(sigma sim.Time, seed uint64) metrics.Series {
	agg := defaultAgg()
	jobs := []*fluid.Job{
		{Spec: workload.Spec{Name: "A", Profile: halfCommProfile, NoiseStd: sigma, Seed: seed*2 + 1}, Agg: agg},
		{Spec: workload.Spec{Name: "B", Profile: halfCommProfile, NoiseStd: sigma, Seed: seed*2 + 2,
			StartOffset: StaggerOffset}, Agg: agg},
	}
	s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: fluid.WeightedShare{}}, jobs)
	s.Run(400 * sim.Second)

	period := halfCommProfile.IdealIterTime(LinkCapacity).Seconds()
	opt := period / 2
	n := min(len(jobs[0].CommStarts), len(jobs[1].CommStarts))
	var errs metrics.Series
	const skip = 60 // transient iterations
	for i := skip; i < n; i++ {
		d := (jobs[1].CommStarts[i] - jobs[0].CommStarts[i]).Seconds()
		for d < 0 {
			d += period
		}
		for d >= period {
			d -= period
		}
		errs = append(errs, d-opt)
	}
	return errs
}
