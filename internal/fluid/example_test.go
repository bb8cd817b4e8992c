package fluid_test

import (
	"fmt"

	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Two GPT-2-like MLTCP jobs colliding on a 50 Gbps bottleneck slide into
// an interleaved schedule: their steady iteration time returns to the
// 1.8 s ideal.
func Example() {
	agg := core.Default()
	jobs := []*fluid.Job{
		{Spec: workload.Spec{Name: "J1", Profile: workload.GPT2}, Agg: &agg},
		{Spec: workload.Spec{Name: "J2", Profile: workload.GPT2, StartOffset: 10 * sim.Millisecond}, Agg: &agg},
	}
	s := fluid.New(fluid.Config{Capacity: 50 * units.Gbps, Policy: fluid.WeightedShare{}}, jobs)
	s.Run(90 * sim.Second)
	for _, j := range jobs {
		fmt.Printf("%s steady iteration: %.2fs\n", j.Spec.Name, j.AvgIterTime(30).Seconds())
	}
	// Output:
	// J1 steady iteration: 1.80s
	// J2 steady iteration: 1.80s
}

// SRPT (pFabric's schedule) on the four-job scenario: the three small jobs
// stay ideal while the GPT-3-like job is head-of-line blocked 1.5×.
func ExampleSRPT() {
	jobs := []*fluid.Job{
		{Spec: workload.Spec{Name: "J1", Profile: workload.GPT3}},
		{Spec: workload.Spec{Name: "J2", Profile: workload.GPT2}},
		{Spec: workload.Spec{Name: "J3", Profile: workload.GPT2}},
		{Spec: workload.Spec{Name: "J4", Profile: workload.GPT2}},
	}
	s := fluid.New(fluid.Config{Capacity: 50 * units.Gbps, Policy: fluid.SRPT{}}, jobs)
	s.Run(90 * sim.Second)
	j1 := jobs[0]
	ideal := j1.Spec.Profile.IdealIterTime(50 * units.Gbps)
	fmt.Printf("J1 slowdown: %.2fx\n", j1.AvgIterTime(30).Seconds()/ideal.Seconds())
	// Output: J1 slowdown: 1.50x
}
