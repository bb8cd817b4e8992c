package fluid

import "mltcp/internal/units"

// refScratch is the reference allocator's working set: per-link arrays
// indexed by global link id, as the allocator kept them before the
// incidence index existed.
type refScratch struct {
	load, wsum []float64
	done       []bool
	frozen     []bool
	weights    []float64
	bottleneck []int
	cands      []int
}

// refAllocateNetwork is the candidate-link progressive filling the
// incidence-indexed AllocateNetwork replaced, kept verbatim in
// structure as the differential oracle: every round rescans all
// candidate links for the bottleneck, scans every active path for the
// flows crossing it, and re-sums every candidate link's weight from
// scratch. AllocateNetwork must reproduce its rates and bottlenecks bit for bit.
func refAllocateNetwork(nw *Network, active []*Job, rates []units.Rate, sc *refScratch) {
	n := len(active)
	for i := range rates {
		rates[i] = 0
	}
	if n == 0 {
		return
	}
	nl := len(nw.Capacities)
	if cap(sc.load) < nl {
		sc.load = make([]float64, nl)
		sc.wsum = make([]float64, nl)
		sc.done = make([]bool, nl)
	}
	sc.load, sc.wsum, sc.done = sc.load[:nl], sc.wsum[:nl], sc.done[:nl]
	if cap(sc.frozen) < n {
		sc.frozen = make([]bool, n)
		sc.weights = make([]float64, n)
		sc.bottleneck = make([]int, n)
	}
	sc.frozen, sc.weights, sc.bottleneck = sc.frozen[:n], sc.weights[:n], sc.bottleneck[:n]
	for i := 0; i < n; i++ {
		sc.frozen[i] = false
		sc.bottleneck[i] = -1
	}
	load, wsum, done := sc.load, sc.wsum, sc.done
	frozen, weights := sc.frozen, sc.weights

	// Every weight sum starts from zero. (Clearing only the last call's
	// candidates would leave the sums that negative or NaN weights build
	// up on non-candidate links to leak into the next call.)
	clear(wsum)
	sc.cands = sc.cands[:0]
	for i, j := range active {
		if len(j.Path) == 0 {
			panicNoPath(j)
		}
		weights[i] = j.Weight()
	}
	for i, j := range active {
		for _, l := range j.Path {
			wsum[l] += weights[i]
		}
	}
	for l := 0; l < nl; l++ {
		if wsum[l] > 0 {
			sc.cands = append(sc.cands, l)
			load[l] = 0
			done[l] = false
		}
	}
	cands := sc.cands

	for remaining, first := n, true; remaining > 0; {
		if first {
			first = false
		} else {
			for _, l := range cands {
				wsum[l] = 0
			}
			for i, j := range active {
				if frozen[i] {
					continue
				}
				for _, l := range j.Path {
					wsum[l] += weights[i]
				}
			}
		}
		bottleneck := -1
		var bottleneckFill float64
		for _, l := range cands {
			if done[l] || wsum[l] <= 0 {
				continue
			}
			fill := (float64(nw.Capacities[l]) - load[l]) / wsum[l]
			if fill < 0 {
				fill = 0
			}
			if bottleneck < 0 || fill < bottleneckFill {
				bottleneck, bottleneckFill = l, fill
			}
		}
		if bottleneck < 0 {
			break
		}
		headroom := float64(nw.Capacities[bottleneck]) - load[bottleneck]
		if headroom < 0 {
			headroom = 0
		}
		for i, j := range active {
			if frozen[i] {
				continue
			}
			onBottleneck := false
			for _, l := range j.Path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			r := headroom * weights[i] / wsum[bottleneck]
			rates[i] = units.Rate(r)
			frozen[i] = true
			sc.bottleneck[i] = bottleneck
			remaining--
			for _, l := range j.Path {
				load[l] += r
			}
		}
		done[bottleneck] = true
	}
}
