package fluid

import (
	"testing"
	"testing/quick"

	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Property: the fluid simulator is work-conserving and never exceeds
// capacity — total bytes delivered over any horizon is at most
// capacity × horizon, and each completed comm phase delivered exactly its
// demand (iteration counts match CommStarts/CommEnds bookkeeping).
func TestFluidConservationProperty(t *testing.T) {
	prop := func(nJobs, offsetAmt uint8, policyPick uint8) bool {
		n := int(nJobs)%4 + 1
		policies := []Policy{WeightedShare{}, SRPT{}, LAS{}, PIAS{Thresholds: []int64{int64(500 * units.MB)}}}
		policy := policies[int(policyPick)%len(policies)]
		jobs := make([]*Job, n)
		for i := range jobs {
			jobs[i] = &Job{Spec: workload.Spec{
				Name:        "J",
				Profile:     workload.GPT2,
				StartOffset: sim.Time(i) * sim.Time(offsetAmt%50+1) * sim.Millisecond,
			}}
		}
		const horizon = 20 * sim.Second
		s := New(Config{Capacity: cap50G, Policy: policy, TraceBucket: 100 * sim.Millisecond}, jobs)
		s.Run(horizon)

		var delivered float64
		for _, j := range jobs {
			// Completed phases delivered exactly CommBytes each.
			delivered += float64(len(j.CommEnds)) * j.totalBytes
			// Partially complete phase: demand minus remaining.
			if j.Communicating() {
				delivered += j.totalBytes - j.commRemaining
			}
			// Bookkeeping invariants.
			if len(j.CommEnds) > len(j.CommStarts) {
				return false
			}
			if len(j.IterDurations) != max0(len(j.CommStarts)-1) {
				return false
			}
			for _, d := range j.IterDurations {
				if d <= 0 {
					return false
				}
			}
		}
		budget := float64(cap50G) / 8 * horizon.Seconds()
		return delivered <= budget*1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// Property: comm phases never run before their job's start offset, and
// each phase's end follows its start by at least the line-rate duration.
func TestFluidPhaseOrderingProperty(t *testing.T) {
	minComm := cap50G.TransmissionTime(int64(workload.GPT2.CommBytes))
	prop := func(offsetMS uint8) bool {
		off := sim.Time(offsetMS) * sim.Millisecond
		j := &Job{Spec: workload.Spec{Name: "J", Profile: workload.GPT2, StartOffset: off}}
		other := &Job{Spec: workload.Spec{Name: "K", Profile: workload.GPT2}}
		s := New(Config{Capacity: cap50G, Policy: WeightedShare{}}, []*Job{j, other})
		s.Run(15 * sim.Second)
		if len(j.CommStarts) == 0 || j.CommStarts[0] < off {
			return false
		}
		for i, end := range j.CommEnds {
			if end-j.CommStarts[i] < minComm-sim.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
