package experiments

import (
	"mltcp/internal/analysis"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Fig5Result is the analytical loss-function curve of Figure 5(c) for two
// identical jobs with a = 1/2: minimum at Δ = T/2, zero at 0 and T.
type Fig5Result struct {
	// DeltaSec are start-time differences across one period, seconds.
	DeltaSec []float64
	// Loss is Equation 4 evaluated at each delta.
	Loss []float64
	// MinDeltaSec is where the sampled minimum falls (should be T/2).
	MinDeltaSec float64
	// Params are the analytical parameters used.
	Params analysis.Params
}

// Fig5 regenerates Figure 5(c) from the closed-form Shift (Equation 3).
func Fig5() Fig5Result {
	p := analysis.DefaultParams(0.5, 1800*sim.Millisecond)
	deltas, losses := p.LossCurve(180)
	minI := 0
	for i, l := range losses {
		if l < losses[minI] {
			minI = i
		}
	}
	return Fig5Result{DeltaSec: deltas, Loss: losses, MinDeltaSec: deltas[minI], Params: p}
}

// Fig6Result captures the sliding effect of Figure 6: two GPT-2 jobs under
// MLTCP-Reno shift a little every iteration until their communication
// phases are disjoint.
type Fig6Result struct {
	Bucket sim.Time
	// Trace holds each job's bandwidth series over the run.
	Trace map[string][]units.Rate
	// DeltaSec[i] is the start-time difference of the two jobs'
	// (i+1)-th communication phases, seconds.
	DeltaSec []float64
	// ShiftSec[i] = DeltaSec[i+1] - DeltaSec[i], the per-iteration shift.
	ShiftSec []float64
	// InterleavedAt is the first iteration whose delta exceeds the comm
	// duration (phases disjoint), -1 if never.
	InterleavedAt int
	// CommDurSec is the communication duration at full rate.
	CommDurSec float64
}

// Fig6 regenerates Figure 6: Job2 starts two stagger offsets after Job1.
func Fig6() Fig6Result {
	const bucket = 50 * sim.Millisecond
	scn := gpt2Scenario("mltcp", 2, 60, 0)
	scn.Jobs[1].OffsetMS = StaggerOffset.Seconds() * 1000 // on top of the default stagger
	r := runFluid(scn, 1, bucket)
	j1, j2 := r.Jobs[0], r.Jobs[1]

	res := Fig6Result{
		Bucket:        bucket,
		Trace:         bandwidth(r),
		CommDurSec:    LinkCapacity.TransmissionTime(int64(workload.GPT2.CommBytes)).Seconds(),
		InterleavedAt: -1,
	}
	n := min(len(j1.CommStarts), len(j2.CommStarts))
	period := workload.GPT2.IdealIterTime(LinkCapacity).Seconds()
	for i := 0; i < n; i++ {
		d := (j2.CommStarts[i] - j1.CommStarts[i]).Seconds()
		// Normalize into [0, T).
		for d < 0 {
			d += period
		}
		for d >= period {
			d -= period
		}
		res.DeltaSec = append(res.DeltaSec, d)
		if res.InterleavedAt < 0 && d >= res.CommDurSec && d <= period-res.CommDurSec {
			res.InterleavedAt = i
		}
	}
	for i := 1; i < len(res.DeltaSec); i++ {
		res.ShiftSec = append(res.ShiftSec, res.DeltaSec[i]-res.DeltaSec[i-1])
	}
	return res
}
