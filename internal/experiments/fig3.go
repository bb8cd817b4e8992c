package experiments

import (
	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/sim"
	"mltcp/internal/workload"
)

// Fig3Result compares the six bandwidth aggressiveness functions of
// Figure 3 on three competing GPT-2 jobs: average iteration time by
// iteration number. Increasing functions (F1–F4) interleave within ~20
// iterations and fall to the ideal; decreasing ones (F5, F6) never improve.
type Fig3Result struct {
	// Functions are the function names, F1..F6.
	Functions []string
	// IterTimeMS[f][k] is the average (across the three jobs) duration
	// of iteration k in milliseconds under function f.
	IterTimeMS [][]float64
	// IdealMS is the jobs' isolated iteration time in milliseconds.
	IdealMS float64
}

// Fig3Iterations is how many iterations each run records.
const Fig3Iterations = 40

// Fig3 regenerates Figure 3.
func Fig3() Fig3Result {
	res := Fig3Result{}
	for _, f := range core.PaperFunctions() {
		f := f
		jobs := gpt2Jobs(3, &f)
		s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: fluid.WeightedShare{}}, jobs)
		s.Run(Fig3Iterations * 3 * sim.Second) // generous horizon
		res.Functions = append(res.Functions, f.Name)
		res.IterTimeMS = append(res.IterTimeMS, avgIterSeries(jobs, Fig3Iterations))
	}
	res.IdealMS = workload.GPT2.IdealIterTime(LinkCapacity).Seconds() * 1000
	return res
}

// gpt2Jobs builds n identical GPT-2-like jobs with the standard stagger.
func gpt2Jobs(n int, agg *core.AggFunc) []*fluid.Job {
	jobs := make([]*fluid.Job, n)
	for i := range jobs {
		jobs[i] = &fluid.Job{
			Spec: workload.Spec{
				Name:        jobName(i),
				Profile:     workload.GPT2,
				StartOffset: sim.Time(i) * StaggerOffset,
			},
			Agg: agg,
		}
	}
	return jobs
}

// avgIterSeries averages iteration k's duration across jobs, in ms.
func avgIterSeries(jobs []*fluid.Job, iters int) []float64 {
	out := make([]float64, 0, iters)
	for k := 0; k < iters; k++ {
		var sum float64
		n := 0
		for _, j := range jobs {
			if k < len(j.IterDurations) {
				sum += j.IterDurations[k].Seconds() * 1000
				n++
			}
		}
		if n == 0 {
			break
		}
		out = append(out, sum/float64(n))
	}
	return out
}
