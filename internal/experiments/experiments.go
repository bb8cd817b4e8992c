// Package experiments implements one harness per figure and claim of the
// paper's evaluation, printed by cmd/mltcp-figures and internal/report.
// Each harness returns structured results; integration tests in this
// package assert the paper's qualitative shapes (who wins, by what factor).
package experiments

import (
	"context"
	"fmt"
	"strconv"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/units"
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

// convergedTol is the per-iteration band around ideal within which the
// figures count a job as converged.
const convergedTol = 0.05

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

// jobStats summarizes one backend job, skipping skip iterations of
// transient in the steady-state average.
func jobStats(j backend.JobResult, skip int) JobStats {
	return JobStats{
		Name:      j.Name,
		AvgIter:   j.SteadyIter(skip),
		Ideal:     j.Ideal,
		Slowdown:  j.Slowdown(skip),
		IterTimes: j.IterTimes,
	}
}

// fourJobScenario is the Fig. 2 workload: J1 = GPT-3-like, J2–J4 =
// GPT-2-like on the paper's 50 Gbps bottleneck, staggered by the
// scenario's default StaggerOffset.
func fourJobScenario(policy string, durationSec, noiseMS float64) *config.Scenario {
	scn := &config.Scenario{Policy: policy, DurationSec: durationSec}
	for i, prof := range []string{"gpt3", "gpt2", "gpt2", "gpt2"} {
		scn.Jobs = append(scn.Jobs, config.Job{Name: fmt.Sprintf("J%d", i+1), Profile: prof, NoiseMS: noiseMS})
	}
	return scn
}

// gpt2Scenario is n identical GPT-2-like jobs (Job1, Job2, ...) with the
// standard stagger.
func gpt2Scenario(policy string, n int, durationSec, noiseMS float64) *config.Scenario {
	scn := &config.Scenario{Policy: policy, DurationSec: durationSec}
	for i := 0; i < n; i++ {
		scn.Jobs = append(scn.Jobs, config.Job{Name: jobName(i), Profile: "gpt2", NoiseMS: noiseMS})
	}
	return scn
}

// runFluid runs a figure's scenario on the fluid backend, recording
// per-job bandwidth in buckets of the given width when it is positive.
// The figures' scenarios are fixed in code, so a rejected one is a
// programming error.
func runFluid(scn *config.Scenario, seed uint64, bucket sim.Time) *backend.Result {
	res, err := (&backend.Fluid{TraceBucket: bucket}).Run(context.Background(), scn, seed)
	if err != nil {
		panic(err)
	}
	return res
}

// bandwidth keys each job's recorded bandwidth series by its name.
func bandwidth(res *backend.Result) map[string][]units.Rate {
	out := make(map[string][]units.Rate, len(res.Jobs))
	for _, j := range res.Jobs {
		rates := make([]units.Rate, len(j.Bandwidth))
		for i, b := range j.Bandwidth {
			rates[i] = units.Rate(b)
		}
		out[j.Name] = rates
	}
	return out
}

// maxSlowdown is the worst job's steady-state slowdown after skip
// iterations of transient.
func maxSlowdown(jobs []backend.JobResult, skip int) float64 {
	worst := 0.0
	for _, j := range jobs {
		worst = max(worst, j.Slowdown(skip))
	}
	return worst
}

// jobName labels the i-th job (0-based) Job1, Job2, ..., Job10, ....
func jobName(i int) string { return "Job" + strconv.Itoa(i+1) }

func defaultAgg() *core.AggFunc {
	f := core.Default()
	return &f
}
