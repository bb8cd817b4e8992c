package experiments

import (
	"mltcp/internal/metrics"
	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// Fig4Result compares six identical GPT-2 jobs under plain fair sharing
// (TCP Reno) and MLTCP-Reno: bandwidth allocation traces (panels a and b)
// and the CDF of iteration times over the jobs' lifetime (panel c), whose
// tail ratio is the paper's 1.59× speedup headline.
type Fig4Result struct {
	Bucket     sim.Time
	RenoTrace  map[string][]units.Rate
	MLTCPTrace map[string][]units.Rate
	// RenoCDF and MLTCPCDF are the empirical CDFs of iteration time in
	// milliseconds over all six jobs' iterations.
	RenoCDF  []metrics.CDFPoint
	MLTCPCDF []metrics.CDFPoint
	// TailSpeedup is Reno's p99 iteration time divided by MLTCP's.
	TailSpeedup float64
	// MedianSpeedup is the same at p50.
	MedianSpeedup float64
}

// Fig4 regenerates Figure 4. The CDFs exclude the same fixed warmup from
// both schemes: the paper measures "over the lifetime of the jobs", which
// is hours of training against a ~20-iteration convergence transient; at
// this simulation's horizon the transient would otherwise dominate the p99
// of both schemes equally and mask the steady-state comparison.
func Fig4() Fig4Result {
	const (
		durationSec = 300
		bucket      = 50 * sim.Millisecond
		warmup      = 30 // iterations excluded per job
	)
	run := func(policy string) (map[string][]units.Rate, metrics.Series) {
		res := runFluid(gpt2Scenario(policy, 6, durationSec, 0), 1, bucket)
		var all metrics.Series
		for _, j := range res.Jobs {
			for _, d := range j.IterTimes[min(warmup, len(j.IterTimes)):] {
				all = append(all, d.Seconds()*1000)
			}
		}
		return bandwidth(res), all
	}

	renoTr, renoIters := run("reno")
	mlTr, mlIters := run("mltcp")
	return Fig4Result{
		Bucket:        bucket,
		RenoTrace:     renoTr,
		MLTCPTrace:    mlTr,
		RenoCDF:       renoIters.CDF(),
		MLTCPCDF:      mlIters.CDF(),
		TailSpeedup:   renoIters.Percentile(99) / mlIters.Percentile(99),
		MedianSpeedup: renoIters.Percentile(50) / mlIters.Percentile(50),
	}
}
