package fluid

import (
	"math"
	"math/bits"

	"mltcp/internal/units"
)

// AllocScratch is the reusable working set for in-place allocators. The
// Sim owns one and passes it to every AllocateInto/AllocateNetworkInto
// call, so steady-state allocation decisions touch only flat arrays and
// allocate nothing. On a network, Sim.New sizes every slice once
// (reserve); otherwise they grow on demand and are then recycled.
type AllocScratch struct {
	// Per-flow (length = number of active jobs):
	Frozen     []bool
	Weights    []float64
	Bottleneck []int // link that froze each flow (-1 while unfrozen / single-link)

	// inc is the max-min allocator's incidence index over the active
	// paths, kept across calls and rebuilt only after Reindex.
	inc incidence

	// Per indexed link (position k in inc.links, not the link id):
	load  []float64 // frozen rate charged to the link
	wsum  []float64 // unfrozen weight crossing the link
	fill  []float64 // cached max(0, (capacity-load)/wsum) while a candidate
	done  []bool    // bottleneck already, or never a candidate this call
	mark  []uint32  // mark[k] == gen: touched by a freeze this round
	gen   uint32    // the current round's mark
	touch []int32   // the positions marked this round, in marking order
}

// incidence indexes which flows cross which links for one active set on
// one network. Links are renumbered to dense positions 0..m-1 in
// ascending link-id order, so every per-link array is m long however
// large the fabric is, and scanning positions in order scans link ids in
// order — the bottleneck tie-break depends on it.
//
// The index is not checked against its input: it stays in use until
// Reindex marks it stale, and the next call rebuilds it.
type incidence struct {
	// built is false in a zero scratch and after Reindex.
	built bool
	// hops holds every active path as link positions, in active order:
	// flow i's path is hops[pathOff[i]:pathOff[i+1]].
	pathOff []int32
	hops    []int32
	// links maps a position to its link id, ascending.
	links []int
	// rowOff/rows is the link→flow CSR: position k is crossed by flows
	// rows[rowOff[k]:rowOff[k+1]], ascending, a flow repeated once per
	// crossing.
	rowOff []int32
	rows   []int32
	// The link-connected components: component c owns the ascending
	// positions compLinks[compOff[c]:compOff[c+1]] and compFlows[c]
	// flows. No flow crosses two components. uniform[c] marks a
	// single-flow component whose flow crosses each of its links once
	// and whose links' capacities have the same bits: every link's fill
	// is then the same, and the bottleneck is the lowest position. On a
	// fat-tree of one link rate every single-flow component is uniform,
	// and skipping its scan is most of what the closed form saves.
	compOff   []int32
	compLinks []int32
	compFlows []int32
	uniform   []bool
	// Build-time scratch: pos maps a current link id to its position,
	// seen is a bitset over link ids (all zero between builds), and
	// cursor and comp are indexed by position.
	pos    []int32
	seen   []uint64
	cursor []int32
	comp   []int32
}

// Reindex marks the cached incidence index stale, so the next
// AllocateNetworkInto call rebuilds it. Call it whenever the active set,
// a job's path or the network (a link capacity included) changes between
// calls that share the scratch: Sim does so wherever a job joins or
// leaves its active set.
func (sc *AllocScratch) Reindex() { sc.inc.built = false }

// reserve sizes the scratch for a network of nl links carrying at most
// flows active jobs whose paths total at most hops link crossings, so
// that no later call — index rebuilds included — allocates.
func (sc *AllocScratch) reserve(flows, hops, nl int) {
	m := min(hops, nl)
	sc.flows(flows)
	sc.links(m)
	ix := &sc.inc
	ix.pathOff = grow(ix.pathOff, flows+1)
	ix.hops = grow(ix.hops, hops)
	ix.rows = grow(ix.rows, hops)
	ix.growLinks(m)
	ix.growNetwork(nl)
}

// grow returns s resliced to length n, reallocating (without copying)
// when its capacity is short. Callers overwrite every element they use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// links (re)sizes the per-position link state for m indexed links.
func (sc *AllocScratch) links(m int) {
	sc.load = grow(sc.load, m)
	sc.wsum = grow(sc.wsum, m)
	sc.fill = grow(sc.fill, m)
	sc.done = grow(sc.done, m)
	sc.touch = grow(sc.touch, m)
	sc.mark = grow(sc.mark, m)
	clear(sc.mark)
	sc.gen = 0
}

// weights (re)sizes just the Weights slice and returns it. The
// single-link fillers never read Frozen or Bottleneck, so they skip the
// per-flow clear that flows performs for the network allocator.
func (sc *AllocScratch) weights(n int) []float64 {
	sc.Weights = grow(sc.Weights, n)
	return sc.Weights
}

// flows (re)sizes and clears the per-flow slices.
func (sc *AllocScratch) flows(n int) {
	sc.Frozen = grow(sc.Frozen, n)
	sc.Weights = grow(sc.Weights, n)
	sc.Bottleneck = grow(sc.Bottleneck, n)
	for i := 0; i < n; i++ {
		sc.Frozen[i] = false
		sc.Bottleneck[i] = -1
	}
}

// growLinks sizes the position-indexed index arrays for m links.
func (ix *incidence) growLinks(m int) {
	ix.links = grow(ix.links, m)
	ix.rowOff = grow(ix.rowOff, m+1)
	ix.compOff = grow(ix.compOff, m+1)
	ix.compLinks = grow(ix.compLinks, m)
	ix.compFlows = grow(ix.compFlows, m)
	ix.uniform = grow(ix.uniform, m)
	ix.cursor = grow(ix.cursor, m)
	ix.comp = grow(ix.comp, m)
}

// growNetwork sizes the link-id-indexed scratch for nl links. Every
// word of seen, up to its capacity, is zero outside build.
func (ix *incidence) growNetwork(nl int) {
	ix.pos = grow(ix.pos, nl)
	ix.seen = grow(ix.seen, (nl+63)/64)
}

// build indexes the active paths on a network with the given link
// capacities: the dense link positions, the paths as positions, the
// link→flow CSR, the link-connected components (union-find over links
// shared by a flow) and which single-flow components are uniform. It
// runs only after Reindex, and allocates only when the scratch was not
// reserved large enough.
//
// hot
func (ix *incidence) build(caps []units.Rate, active []*Job) {
	ix.growNetwork(len(caps))
	total := 0
	for _, j := range active {
		total += len(j.Path)
	}
	ix.pathOff = grow(ix.pathOff, len(active)+1)
	ix.hops = grow(ix.hops, total)
	ix.rows = grow(ix.rows, total)

	// Every crossed link is marked in seen; then the marked links,
	// ascending, become positions 0..m-1 (clearing seen again).
	off := 0
	for i, j := range active {
		ix.pathOff[i] = int32(off)
		off += len(j.Path)
		for _, l := range j.Path {
			ix.seen[l>>6] |= 1 << (l & 63)
		}
	}
	ix.pathOff[len(active)] = int32(off)
	links := ix.links[:0]
	for w, word := range ix.seen {
		for ; word != 0; word &= word - 1 {
			l := w<<6 | bits.TrailingZeros64(word)
			ix.pos[l] = int32(len(links))
			links = append(links, l)
		}
		ix.seen[w] = 0
	}
	ix.links = links
	m := len(links)
	ix.growLinks(m)
	for i, j := range active {
		hops := ix.hops[ix.pathOff[i]:ix.pathOff[i+1]]
		for p, l := range j.Path {
			hops[p] = ix.pos[l]
		}
	}

	// CSR rows: count crossings per position, prefix-sum, then place the
	// flows in ascending order (cursor is each row's write head).
	for k := range ix.cursor {
		ix.cursor[k] = 0
	}
	for _, k := range ix.hops {
		ix.cursor[k]++
	}
	ix.rowOff[0] = 0
	for k := 0; k < m; k++ {
		ix.rowOff[k+1] = ix.rowOff[k] + ix.cursor[k]
		ix.cursor[k] = ix.rowOff[k]
	}
	for i := range active {
		for _, k := range ix.hops[ix.pathOff[i]:ix.pathOff[i+1]] {
			ix.rows[ix.cursor[k]] = int32(i)
			ix.cursor[k]++
		}
	}

	// Components: union every flow's links (cursor now serves as the
	// union-find parent array), then number the roots in ascending order
	// of their lowest position and bucket the positions by component.
	parent := ix.cursor
	for k := range parent {
		parent[k] = int32(k)
	}
	for i := range active {
		hops := ix.hops[ix.pathOff[i]:ix.pathOff[i+1]]
		r := find(parent, hops[0])
		for _, k := range hops[1:] {
			if s := find(parent, k); s != r {
				if s < r {
					r, s = s, r
				}
				parent[s] = r
			}
		}
	}
	nc := int32(0)
	for k := range parent {
		r := find(parent, int32(k))
		if r == int32(k) {
			ix.comp[k] = nc
			ix.compOff[nc+1] = 0
			ix.compFlows[nc] = 0
			nc++
		} else {
			ix.comp[k] = ix.comp[r] // r < k: already numbered
		}
		ix.compOff[ix.comp[k]+1]++
	}
	ix.compOff[0] = 0
	for c := int32(0); c < nc; c++ {
		ix.compOff[c+1] += ix.compOff[c]
		ix.cursor[c] = ix.compOff[c] // parent is dead from here on
	}
	for k := 0; k < m; k++ {
		c := ix.comp[k]
		ix.compLinks[ix.cursor[c]] = int32(k)
		ix.cursor[c]++
	}
	for i := range active {
		ix.compFlows[ix.comp[ix.hops[ix.pathOff[i]]]]++
	}
	ix.compOff = ix.compOff[:nc+1]
	ix.compFlows = ix.compFlows[:nc]

	// Uniform single-flow components: one crossing per link and
	// bit-identical capacities, so every link's fill is the same bits.
	for c := int32(0); c < nc; c++ {
		comp := ix.compLinks[ix.compOff[c]:ix.compOff[c+1]]
		c0 := math.Float64bits(float64(caps[links[comp[0]]]))
		u := ix.compFlows[c] == 1
		for _, k := range comp {
			u = u && ix.rowOff[k+1]-ix.rowOff[k] == 1 && math.Float64bits(float64(caps[links[k]])) == c0
		}
		ix.uniform[c] = u
	}
	ix.uniform = ix.uniform[:nc]
	ix.built = true
}

// find returns k's union-find root, halving the path on the way.
func find(parent []int32, k int32) int32 {
	for parent[k] != k {
		parent[k] = parent[parent[k]]
		k = parent[k]
	}
	return k
}
