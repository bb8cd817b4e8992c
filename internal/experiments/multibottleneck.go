package experiments

import (
	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/units"
)

// MultiBottleneckResult extends the evaluation beyond the paper's single
// bottleneck: a parking-lot chain where one long job traverses two trunks
// and two cross jobs each load one trunk. MLTCP must interleave the long
// job against *both* neighbours simultaneously; a fully interleaved
// schedule exists (the cross jobs can share a time slot since they use
// different trunks), and distributed MLTCP should find it.
type MultiBottleneckResult struct {
	// Names are the jobs: "long" (sw0->sw2), "crossA" (sw0->sw1),
	// "crossB" (sw1->sw2).
	Names []string
	// IterTimes[i] are job i's iteration durations.
	IterTimes [][]sim.Time
	// SteadyAvg[i] averages the last 10 iterations.
	SteadyAvg []sim.Time
	// Ideal is the isolated iteration time (same shape for all three).
	Ideal sim.Time
}

// MultiBottleneck runs the parking-lot scenario at packet level, every job
// under MLTCP-Reno.
func MultiBottleneck(horizon sim.Time) MultiBottleneckResult {
	eng := sim.New()
	p := netsim.NewParkingLot(eng, netsim.ParkingLotConfig{
		Switches:       3,
		HostsPerSwitch: 3,
		HostRate:       5 * units.Gbps,
		TrunkRate:      plRate,
		HostDelay:      10 * sim.Microsecond,
		TrunkDelay:     30 * sim.Microsecond,
	})
	profile := scaledGPT2()
	bytes := int64(profile.CommBytes)

	type route struct {
		name     string
		src, dst *netsim.Host
	}
	routes := []route{
		{"long", p.Host(0, 0), p.Host(2, 0)},
		{"crossA", p.Host(0, 1), p.Host(1, 1)},
		{"crossB", p.Host(1, 2), p.Host(2, 2)},
	}

	res := MultiBottleneckResult{Ideal: plIdeal(profile)}
	jobs := make([]*tcp.Job, len(routes))
	for i, r := range routes {
		cc := core.Wrap(tcp.NewReno(), core.Default(), core.NewTracker(bytes, 400*sim.Millisecond))
		f := tcp.NewFlow(eng, netsim.FlowID(i+1), r.src, r.dst, cc, tcp.Config{})
		jobs[i] = &tcp.Job{Sender: f.Sender, Bytes: bytes, Compute: profile.ComputeTime}
		jobs[i].Start(eng, sim.Time(i)*StaggerOffset)
		res.Names = append(res.Names, r.name)
	}
	eng.RunUntil(horizon)

	for _, j := range jobs {
		ts := j.IterTimes()
		res.IterTimes = append(res.IterTimes, ts)
		res.SteadyAvg = append(res.SteadyAvg, lastMean(ts, 10))
	}
	return res
}
