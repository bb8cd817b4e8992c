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

// BenchmarkMaxMinFatTree8 times one AllocateNetwork call on a
// k=8 fat-tree at 50 Gbps, the cluster fluid point's fabric, over a
// frozen set of ten active jobs from the fabric benchmark's trace
// (fatTree8Trace; the fabric benchmark averages ≈9.5 active flows per
// call). "middle" is the ten jobs in the middle of the trace, all of
// them in star components; "fill" is the window fillWindow picks,
// whose components without a star take the general fill loop. Every
// call moves every MLTCP weight, as a fluid step does; the incidence
// index is built before the timer starts and kept, as Sim keeps it
// between joins and leaves.
func BenchmarkMaxMinFatTree8(b *testing.B) {
	const flows = 10
	nw, all := fatTree8Trace()
	b.Run("middle", func(b *testing.B) {
		benchMaxMin(b, nw, all[(len(all)-flows)/2:][:flows])
	})
	b.Run("fill", func(b *testing.B) {
		benchMaxMin(b, nw, all[fillWindow(nw, all, flows):][:flows])
	})
}

// benchMaxMin times AllocateNetwork on one frozen active set.
func benchMaxMin(b *testing.B, nw *Network, active []*Job) {
	rates := make([]units.Rate, len(active))
	var sc AllocScratch
	AllocateNetwork(nw, active, rates, &sc) // builds the index
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		stepWeights(active, n)
		AllocateNetwork(nw, active, rates, &sc)
	}
}

// stepWeights moves every job's MLTCP weight to the n-th of sixteen
// progress levels, staggered by job.
func stepWeights(active []*Job, n int) {
	for k, j := range active {
		setProgress(j, float64((n+3*k)%16)/16)
	}
}

// fatTree8Trace places the 48 jobs of the fabric benchmark's trace on a
// k=8 fat-tree at 50 Gbps as experiments.ClusterScenario and
// place.Compile do: Poisson arrivals at 16/s and random rack pairs from
// one seeded RNG, host slots round-robin within each rack, and an ECMP
// path per job, in arrival order.
func fatTree8Trace() (*Network, []*Job) {
	const jobs = 48
	fab := netsim.NewFatTree(8, 50*units.Gbps, 50*units.Gbps)
	caps := make([]units.Rate, len(fab.Links()))
	for l, lk := range fab.Links() {
		caps[l] = lk.Capacity
	}
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
	return NewNetwork(caps, nil), all
}

// fillWindow returns the start of the window of flows consecutive jobs
// whose incidence index puts the most links in components without a
// star, the earliest window on ties.
func fillWindow(nw *Network, all []*Job, flows int) int {
	best, most := 0, -1
	for s := 0; s+flows <= len(all); s++ {
		var sc AllocScratch
		sc.rebuild(nw.Capacities, all[s:s+flows])
		if _, links, _ := fillShape(&sc.inc); links > most {
			best, most = s, links
		}
	}
	return best
}

// fillShape counts the index's components without a star, and their
// links and candidate links.
func fillShape(ix *incidence) (comps, links, cands int) {
	for c, s := range ix.star {
		if s >= 0 {
			continue
		}
		comps++
		for l := ix.compHead[c]; l >= 0; l = ix.linkNext[l] {
			links++
		}
		for l := ix.cand[c]; l >= 0; l = ix.candNext[l] {
			cands++
		}
	}
	return comps, links, cands
}

// TestMaxMinFatTree8Shape pins what BenchmarkMaxMinFatTree8's two
// frozen sets exercise: "middle" has only star components, and "fill"
// has one component without a star, whose 21 links fall into 7 twin
// classes.
func TestMaxMinFatTree8Shape(t *testing.T) {
	const flows = 10
	nw, all := fatTree8Trace()
	for _, tc := range []struct {
		name                      string
		start                     int
		comps, fills, links, cand int
	}{
		{"middle", (len(all) - flows) / 2, 8, 0, 0, 0},
		{"fill", fillWindow(nw, all, flows), 7, 1, 21, 7},
	} {
		var sc AllocScratch
		sc.rebuild(nw.Capacities, all[tc.start:][:flows])
		fills, links, cands := fillShape(&sc.inc)
		if comps := len(sc.inc.compHead); comps != tc.comps || fills != tc.fills || links != tc.links || cands != tc.cand {
			t.Errorf("%s (jobs %d-%d): %d components, %d without a star over %d links, %d candidates; want %d, %d, %d, %d",
				tc.name, tc.start, tc.start+flows-1, comps, fills, links, cands, tc.comps, tc.fills, tc.links, tc.cand)
		}
	}
}

// TestMaxMinFatTree8FillAllocatesNothing checks that the fill loop, on
// the benchmark's "fill" set, allocates nothing once the index is built.
func TestMaxMinFatTree8FillAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	nw, all := fatTree8Trace()
	active := all[fillWindow(nw, all, 10):][:10]
	rates := make([]units.Rate, len(active))
	var sc AllocScratch
	AllocateNetwork(nw, active, rates, &sc)
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		stepWeights(active, n)
		n++
		AllocateNetwork(nw, active, rates, &sc)
	}); a != 0 {
		t.Fatalf("AllocateNetwork on the fill set: %v allocs/op, want 0", a)
	}
}
