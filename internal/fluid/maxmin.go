package fluid

import (
	"fmt"
	"math"

	"mltcp/internal/units"
)

// Network describes a multi-link fabric for the fluid simulator: one
// capacity per directed link. Jobs carry a Path of link indices;
// AllocateNetwork allocates rates so every flow is bottlenecked
// somewhere on its own path rather than on one global link.
type Network struct {
	// Capacities[l] is link l's rate.
	Capacities []units.Rate
}

// NewNetwork builds a Network from its link capacities.
func NewNetwork(capacities []units.Rate) *Network {
	if len(capacities) == 0 {
		panic("fluid: network needs at least one link")
	}
	return &Network{Capacities: capacities}
}

// AllocateNetwork is the weighted max-min allocator a Network runs
// under: it fills rates by progressive filling (water-filling), where
// each flow's level rises in proportion to its Weight() until some link
// on its path saturates. On a single shared link this reduces
// bit-for-bit to WeightedShare — every flow's one bottleneck is that
// link and its rate is capacity·w/Σw computed by the same expression.
//
// Each round finds the link that saturates first — the minimum of
// headroom/Σweights over links still carrying unfrozen flows — freezes
// every unfrozen flow crossing it at its weighted share of the remaining
// headroom, and charges those rates to every link on the frozen flows'
// paths. Ties break toward the lowest link index, so the allocation is a
// pure function of (network, active jobs).
//
// The work is organized around the scratch's incidence index, so a call
// costs in proportion to the links and flows that interact, not to the
// fabric. The index is reused unchecked. Sim keeps it current by
// reporting each job that joins or leaves its active set, which updates
// only the components that job's links touch. A zero scratch's first
// call, and the first call after sc.Reindex, build it from active: a
// direct caller that reuses sc after the active set, a job's path or
// the network (a link capacity included) changed must call sc.Reindex
// first.
//
//   - Filling runs per link-connected component, each on its own. A
//     freeze moves load and weight sums only inside its component, and
//     within one the scan is in ascending link order, so every component
//     meets its bottlenecks in the same order, with the same tie-breaks,
//     as one global scan would. Each component initialises its own
//     links' round-one state.
//   - A component with a star s (incidence.starLink) touches no
//     per-link state. Every flow crosses s once, so s's round-one fill
//     is m/S: its capacity over its row's weight sum, added in flow
//     order as round one adds it. Round one freezes every flow at s, at
//     nonNeg(m-0)·w/S, unless another link's fill rounds to m/S or
//     below, which cannot happen when w_min > S·2⁻⁴⁰ > 0 and m/S rounds
//     to a normal float. With u = 2⁻⁵³, n ≤ 2¹⁰ positive weights sum to
//     within a factor 1±γ of the exact W, γ = (n-1)u/(1-(n-1)u) < 2⁻⁴³.
//     A link k is (a) on every flow at capacity m: same sum and fill,
//     and k > s; (b) on every flow at capacity ≥ m·(1+2⁻⁴⁰); or (c) on
//     a proper subset of the flows, of exact weight ≤ W-w_min <
//     W(1-(1-γ)2⁻⁴⁰), so its rounded sum is below S(1-2⁻⁴¹). In (b) and
//     (c) k's exact fill is above m/S·(1+2⁻⁴¹), and rounding a normal
//     quotient moves it by a factor within 1±u: no tie, which would go
//     to a lower link, is possible. A fill that overflows or is
//     subnormal can tie, and a weight that is not positive, NaN or tiny
//     beside S breaks (c): those take the fill loop.
//   - The fill loop runs over the component's candidate chain
//     (incidence.candidates), one link per twin class: links whose
//     capacities have the same bits and whose rows hold the same flows,
//     in the same order, the same number of times. In the plain rescan,
//     twins get the same round-one weight sum (the same additions in
//     the same order) and the same load (every frozen flow charges both
//     the same r, the same number of times, in the same order), so the
//     same fill bits in every round. The lower twin, the candidate,
//     wins every tie; when it is the bottleneck, every unfrozen flow of
//     the higher twin freezes with it, which leaves the higher twin no
//     weight. So the higher twin is never a bottleneck, and scanning,
//     charging and re-summing only candidates changes no rate and no
//     bottleneck. (A link whose row is a strict subset of another's is
//     kept: ruling it out would need tie margins, as the star does.)
//   - The flows on a bottleneck come from its row, in active order —
//     the order a scan over every active path finds them in.
//   - After a round only the candidates a frozen flow crosses have their
//     weight sum and fill recomputed. Each is re-summed over its row
//     in flow order, the same float additions in the same order as a sum
//     from scratch; every other link's sum and fill are unchanged.
//   - Per-flow scratch is cleared only where it is read: the star path
//     writes every rate and bottleneck of its flows and reads no frozen
//     flag, so only the fill loop clears its component's flows' flags
//     and bottlenecks, in its round-one sums.
//
// Every rate, and the freezing link recorded in sc.Bottleneck, is thus
// bit-identical to the plain per-round rescan (pinned against it by the
// differential tests). The result satisfies the allocator invariants
// pinned by maxmin_test.go: per-link conservation, at least one
// saturated link on every flow's path, and rates proportional to weights
// among flows sharing a bottleneck.
//
// hot
func AllocateNetwork(nw *Network, active []*Job, rates []units.Rate, sc *AllocScratch) {
	n := len(active)
	for i := range rates {
		rates[i] = 0
	}
	if n == 0 {
		return
	}
	frozen, weights, bottleneck := fit(&sc.frozen, n), fit(&sc.Weights, n), fit(&sc.Bottleneck, n)
	for i, j := range active {
		if len(j.Path) == 0 {
			panicNoPath(j)
		}
		weights[i] = j.Weight()
	}
	ix := &sc.inc
	if !ix.built {
		sc.rebuild(nw.Capacities, active)
	}
	caps, rowHead, xs, candNext := nw.Capacities, ix.rowHead, ix.xs, ix.candNext
	load, wsum, fill, done, mark := sc.load, sc.wsum, sc.fill, sc.done, sc.mark

	for c, nf := range ix.compFlows {
		if s := ix.star[c]; s >= 0 {
			m, ws, wmin := float64(caps[s]), 0.0, math.Inf(1)
			for x := rowHead[s]; x >= 0; x = xs[x].next {
				w := weights[xs[x].flow]
				ws += w
				wmin = min(wmin, w) // NaN if any weight is
			}
			if fs := m / ws; wmin > ws*0x1p-40 && fs >= 0x1p-1022 && fs <= math.MaxFloat64 {
				for x := rowHead[s]; x >= 0; x = xs[x].next {
					f := xs[x].flow
					rates[f] = units.Rate(nonNeg(m-0) * weights[f] / ws)
					bottleneck[f] = int(s)
				}
				continue
			}
		}

		// Round one's weight sums, over the candidate chain. Every flow
		// of the component is on some candidate's row, so this is also
		// where its per-flow state is cleared. A link whose sum is not
		// positive is out of the running for the whole call (with
		// non-negative weights its sum stays 0 as flows freeze), so it is
		// marked done up front.
		first := ix.cand[c]
		for k := first; k >= 0; k = candNext[k] {
			var w float64
			for x := rowHead[k]; x >= 0; x = xs[x].next {
				f := xs[x].flow
				w += weights[f]
				frozen[f], bottleneck[f] = false, -1
			}
			wsum[k], load[k], done[k] = w, 0, !(w > 0)
			if w > 0 {
				fill[k] = nonNeg(float64(caps[k]) / w) // load is 0: capacity-0 is capacity
			}
		}
		for remaining := nf; remaining > 0; {
			// The next bottleneck: least headroom per unit of unfrozen
			// weight, lowest link on ties.
			b := int32(-1)
			var bFill float64
			for k := first; k >= 0; k = candNext[k] {
				if done[k] || wsum[k] <= 0 {
					continue
				}
				if b < 0 || fill[k] < bFill {
					b, bFill = k, fill[k]
				}
			}
			if b < 0 {
				// Every remaining flow has zero weight on every link.
				break
			}
			headroom := nonNeg(float64(caps[b]) - load[b])
			if sc.gen++; sc.gen == 0 { // wrapped: no stale mark may equal gen
				clear(mark)
				sc.gen = 1
			}
			gen := sc.gen
			for x := rowHead[b]; x >= 0; x = xs[x].next {
				f := xs[x].flow
				if frozen[f] {
					continue // frozen earlier, or a repeat crossing
				}
				// capacity·w/Σw ordering matches WeightedShare exactly
				// when the bottleneck is the flow's first (load 0,
				// headroom = capacity).
				r := headroom * weights[f] / wsum[b]
				rates[f] = units.Rate(r)
				frozen[f] = true
				bottleneck[f] = int(b)
				remaining--
				for _, k := range ix.paths[f] {
					if candNext[k] >= -1 { // a higher twin's load is never read
						load[k] += r
						mark[k] = gen
					}
				}
			}
			done[b] = true
			if remaining == 0 {
				break // nothing left to fill: skip the recompute
			}
			for k := first; k >= 0; k = candNext[k] {
				if done[k] || mark[k] != gen {
					continue
				}
				var w float64
				for x := rowHead[k]; x >= 0; x = xs[x].next {
					if f := xs[x].flow; !frozen[f] {
						w += weights[f]
					}
				}
				wsum[k] = w
				if w > 0 {
					fill[k] = nonNeg((float64(caps[k]) - load[k]) / w)
				}
			}
		}
	}
}

// nonNeg clamps float drift below zero headroom to 0 (NaN passes through).
func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// panicNoPath keeps the panic formatting (whose fmt arguments box) out
// of the //hot allocator body.
func panicNoPath(j *Job) {
	panic(fmt.Sprintf("fluid: job %s has no path", j.Spec.Label()))
}
