// Package experiments implements one harness per figure and claim of the
// paper's evaluation, printed by cmd/mltcp-figures and internal/report.
// Each harness returns structured results; integration tests in this
// package assert the paper's qualitative shapes (who wins, by what factor).
package experiments

import (
	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/metrics"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// LinkCapacity is the bottleneck rate used throughout the paper's testbed.
const LinkCapacity = 50 * units.Gbps

// StaggerOffset is the tiny start-time stagger applied between jobs that
// the paper describes as starting "at the same time". A fluid model is
// perfectly symmetric, so exactly simultaneous identical jobs would sit on
// the loss function's unstable maximum forever; 10ms of stagger stands in
// for the packet-level and clock asymmetries that break the tie on a real
// testbed (and is <1% of an iteration).
const StaggerOffset = 10 * sim.Millisecond

// JobStats summarizes one job's outcome.
type JobStats struct {
	Name string
	// AvgIter is the steady-state average iteration time (transient
	// skipped).
	AvgIter sim.Time
	// Ideal is the job's isolated iteration time.
	Ideal sim.Time
	// Slowdown is AvgIter / Ideal.
	Slowdown float64
	// IterTimes are all recorded iteration durations.
	IterTimes []sim.Time
}

func summarize(j *fluid.Job, skip int) JobStats {
	ideal := j.Spec.Profile.IdealIterTime(LinkCapacity)
	avg := j.AvgIterTime(skip)
	return JobStats{
		Name:      j.Spec.Label(),
		AvgIter:   avg,
		Ideal:     ideal,
		Slowdown:  avg.Seconds() / ideal.Seconds(),
		IterTimes: j.IterDurations,
	}
}

// fourJobs builds the Fig. 2 workload: J1 = GPT-3-like, J2–J4 = GPT-2-like,
// all starting their first communication phase (near-)simultaneously,
// optionally staggered and optionally MLTCP-weighted.
func fourJobs(agg *core.AggFunc, offsets []sim.Time) []*fluid.Job {
	profiles := []workload.Profile{workload.GPT3, workload.GPT2, workload.GPT2, workload.GPT2}
	names := []string{"J1", "J2", "J3", "J4"}
	jobs := make([]*fluid.Job, len(profiles))
	for i := range profiles {
		var off sim.Time
		if offsets != nil {
			off = offsets[i]
		} else {
			off = sim.Time(i) * StaggerOffset
		}
		jobs[i] = &fluid.Job{
			Spec: workload.Spec{Name: names[i], Profile: profiles[i], StartOffset: off},
			Agg:  agg,
		}
	}
	return jobs
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

func jobName(i int) string { return "Job" + string(rune('1'+i)) }

func defaultAgg() *core.AggFunc {
	f := core.Default()
	return &f
}

// avgSeconds converts steady-state iteration times to seconds for tables.
func avgSeconds(ts []sim.Time) float64 {
	return metrics.FromTimes(ts).Mean()
}
