package experiments

import (
	"mltcp/internal/backend"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Hand-built packet-level testbeds, for the experiments whose topology or
// traffic a config.Scenario does not describe (background flows, a
// parking-lot chain); every scenario-shaped packet experiment runs through
// backend.Packet. Both render the paper's testbed at 1/100 scale: a
// 500 Mbps bottleneck with byte volumes scaled likewise, so iteration
// times match the 50 Gbps scenarios while packet counts stay tractable.
const plRate = 500 * units.Mbps

// scaledGPT2 is the GPT-2 profile with bytes at 1/100 (for the 500 Mbps
// bottleneck) and the compute phase at full duration, so iteration
// structure matches the 50 Gbps scenario.
func scaledGPT2() workload.Profile {
	p := workload.GPT2.Scale(0.01)
	p.ComputeTime = workload.GPT2.ComputeTime
	return p
}

// plIdeal is a profile's isolated iteration time on the plRate bottleneck.
func plIdeal(p workload.Profile) sim.Time {
	return p.ComputeTime + plRate.TransmissionTime(int64(p.CommBytes))
}

// plDumbbell is the 1/100-scale dumbbell: pairs host pairs on 5 Gbps
// edges around one plRate bottleneck.
func plDumbbell(eng *sim.Engine, pairs int) *netsim.Dumbbell {
	return netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        5 * units.Gbps,
		BottleneckRate:  plRate,
		HostDelay:       10 * sim.Microsecond,
		BottleneckDelay: 30 * sim.Microsecond,
	})
}

// lastMean averages the final n durations of ts (all of them when there
// are fewer, 0 when there are none).
func lastMean(ts []sim.Time, n int) sim.Time {
	return backend.JobResult{IterTimes: ts}.SteadyIter(len(ts) - n)
}
