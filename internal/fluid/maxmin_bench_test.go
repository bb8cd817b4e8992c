package fluid

import (
	"fmt"
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// BenchmarkMaxMinFatTree8 times one MaxMin.AllocateNetworkInto call on a
// k=8 fat-tree at 50 Gbps, the cluster fluid point's fabric. It places
// the 48 jobs of the fabric benchmark's trace as
// experiments.ClusterScenario and place.Compile do: Poisson arrivals at
// 16/s and random rack pairs from one seeded RNG, host slots round-robin
// within each rack, and an ECMP path per job. The frozen active set is
// the ten jobs in the middle of the trace (the fabric benchmark averages
// ≈9.5 active flows per call). Every call moves every MLTCP weight, as a
// fluid step does; the incidence index is built before the timer starts
// and kept, as Sim keeps it between joins and leaves.
func BenchmarkMaxMinFatTree8(b *testing.B) {
	const jobs, flows = 48, 10
	fab := netsim.NewFatTree(8, 50*units.Gbps, 50*units.Gbps)
	caps := make([]units.Rate, len(fab.Links()))
	for l, lk := range fab.Links() {
		caps[l] = lk.Capacity
	}
	nw := NewNetwork(caps, nil)
	rng := sim.NewRNG(1)
	arrivals := workload.NewPoissonArrivals(16, rng)
	racks := fab.Racks()
	srcSlot, dstSlot := make([]int, racks), make([]int, racks)
	agg := core.Default()
	all := make([]*Job, jobs)
	for i := range all {
		arrivals.Next()
		src, dst := rng.Intn(racks), rng.Intn(racks)
		if dst == src {
			dst = (dst + 1) % racks
		}
		rng.Intn(15) // the job's iteration budget, as ClusterScenario draws it
		srcHosts, dstHosts := fab.RackHosts(src), fab.RackHosts(dst)
		s := srcHosts[srcSlot[src]%len(srcHosts)]
		d := dstHosts[dstSlot[dst]%len(dstHosts)]
		srcSlot[src]++
		dstSlot[dst]++
		all[i] = netJob(fmt.Sprintf("j%02d", i), 1, fab.Path(s, d, rng.Uint64()))
		all[i].Agg = &agg
	}
	active := all[(jobs-flows)/2:][:flows]
	rates := make([]units.Rate, flows)
	var sc AllocScratch
	MaxMin{}.AllocateNetworkInto(nw, active, rates, &sc) // builds the index
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for k, j := range active {
			setProgress(j, float64((n+3*k)%16)/16)
		}
		MaxMin{}.AllocateNetworkInto(nw, active, rates, &sc)
	}
}
