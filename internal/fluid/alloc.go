package fluid

import (
	"math"
	"slices"

	"mltcp/internal/units"
)

// AllocScratch is the reusable working set for the allocators. The Sim
// owns one and passes it to every Policy.Allocate and AllocateNetwork
// call, so steady-state allocation decisions touch only flat arrays and
// allocate nothing. On a network, Sim.New sizes every slice once
// (reserve); otherwise they grow on demand and are then recycled.
//
// The network allocator writes every Weights and Bottleneck element on
// every call. Its own per-flow frozen flags it clears only for the flows
// of components that take the fill loop, the one code that reads them.
type AllocScratch struct {
	// Per-flow, by active position (each may outrun the active set):
	Weights    []float64
	Bottleneck []int // link that froze each flow (-1 if none did; unset for single-link)
	frozen     []bool

	// inc is the max-min allocator's incidence index over the active
	// paths, kept across calls: Sim reports every join and leave to it,
	// and a direct caller marks it stale with Reindex.
	inc incidence

	// Per candidate link of the indexed network, by link id (the fill
	// loop reads and writes no other link's):
	load []float64 // frozen rate charged to the link
	wsum []float64 // unfrozen weight crossing the link
	fill []float64 // cached max(0, (capacity-load)/wsum) while in the running
	done []bool    // bottleneck already, or never in the running this call
	mark []uint32  // mark[l] == gen: touched by a freeze this round
	gen  uint32    // the current round's mark
}

// incidence indexes which active flows cross which links of one network,
// and how those links group into link-connected components. Every
// per-link array is indexed by link id and every per-flow array by
// active position. Each component also keeps its star and its
// candidate chain, one link per twin class, which attach rebuilds
// whenever the component changes. It is kept incrementally: join adds
// one flow and leave drops one, each touching only that flow's links
// and the components they belong to. A full build is reset followed by
// a join per active flow, in active order.
//
// The index is not checked against its input: the caller keeps it in
// step with the active set (Sim by join and leave, anyone else by
// Reindex, which makes the next call rebuild it).
type incidence struct {
	// built is false in a zero scratch and after Reindex; join and leave
	// leave a stale index alone.
	built bool
	// caps are the indexed network's link capacities.
	caps []units.Rate
	// paths[f] is active flow f's path.
	paths [][]int
	// The link→flow rows: link l's crossings are the list rowHead[l],
	// xs[rowHead[l]].next, ... (-1 ends it), in ascending flow order, a
	// flow repeated once per crossing. Unused crossings have flow -1 and
	// are chained from free.
	rowHead []int32
	xs      []crossing
	free    int32
	// The components: no flow crosses two. Link l belongs to component
	// compOf[l] (-1 while no active flow crosses it). Component c's
	// links, ascending, are the list compHead[c], linkNext[...], ..., and
	// it holds compFlows[c] flows. star[c] is its star link, or -1 (see
	// starLink): a link every flow crosses, the bottleneck of every flow
	// in round one, so the allocator fills the component in closed form.
	// On a one-rate fat-tree every single-flow component has a star, and
	// most multi-flow ones do. cand[c] heads component c's candidate
	// chain (see candidates): the lowest link of each twin class, in
	// ascending order, continued by candNext[...]; candNext is -2 on a
	// component's other links. Components are numbered densely; their
	// order does not affect any rate, since each is filled on its own.
	compOf    []int32
	linkNext  []int32
	candNext  []int32
	compHead  []int32
	compFlows []int32
	star      []int32
	cand      []int32
	// rest is leave's scratch: the flows left in a dissolved component.
	rest []int32
}

// crossing is one flow's crossing of one link, an element of that
// link's row.
type crossing struct{ flow, next int32 }

// Reindex marks the cached incidence index stale, so the next
// AllocateNetwork call rebuilds it from its active set. A direct
// caller that reuses the scratch calls it whenever the active set, a
// job's path or the network (a link capacity included) changes between
// calls. Sim never needs it: it reports each join and leave to the
// index instead.
func (sc *AllocScratch) Reindex() { sc.inc.built = false }

// reserve sizes the scratch for a network with the given capacities,
// carrying at most flows active jobs whose paths total at most hops
// link crossings, so that no later call — joins and leaves included —
// allocates, and leaves it an empty, current index.
func (sc *AllocScratch) reserve(caps []units.Rate, flows, hops int) {
	fit(&sc.frozen, flows)
	fit(&sc.Weights, flows)
	fit(&sc.Bottleneck, flows)
	ix := &sc.inc
	ix.paths = grow(ix.paths, flows)
	ix.xs = grow(ix.xs, hops)
	ix.compHead = grow(ix.compHead, flows)
	ix.compFlows = grow(ix.compFlows, flows)
	ix.star = grow(ix.star, flows)
	ix.cand = grow(ix.cand, flows)
	ix.rest = grow(ix.rest, flows)
	sc.reset(caps)
}

// reset empties the index for a network with the given capacities and
// sizes the per-link state for it.
func (sc *AllocScratch) reset(caps []units.Rate) {
	nl := len(caps)
	sc.load = grow(sc.load, nl)
	sc.wsum = grow(sc.wsum, nl)
	sc.fill = grow(sc.fill, nl)
	sc.done = grow(sc.done, nl)
	sc.mark = grow(sc.mark, nl)
	clear(sc.mark)
	sc.gen = 0

	ix := &sc.inc
	ix.caps = caps
	ix.rowHead = grow(ix.rowHead, nl)
	ix.compOf = grow(ix.compOf, nl)
	ix.linkNext = grow(ix.linkNext, nl)
	ix.candNext = grow(ix.candNext, nl)
	for l := range nl {
		ix.rowHead[l], ix.compOf[l] = -1, -1
	}
	clear(ix.paths)
	ix.paths = ix.paths[:0]
	ix.xs = ix.xs[:0]
	ix.free = -1
	ix.compHead = ix.compHead[:0]
	ix.compFlows = ix.compFlows[:0]
	ix.star = ix.star[:0]
	ix.cand = ix.cand[:0]
	ix.built = true
}

// rebuild indexes the active paths from scratch.
func (sc *AllocScratch) rebuild(caps []units.Rate, active []*Job) {
	sc.reset(caps)
	for i, j := range active {
		sc.inc.join(i, j.Path)
	}
}

// grow returns s resliced to length n, reallocating (without copying)
// when its capacity is short. Callers overwrite every element they use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// fit returns *s at length n. It stores into *s only when *s is short,
// a new slice at full length, so indexes below n stay readable through
// *s: a store per call would pay a GC write barrier while marking.
func fit[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, max(n, 2*cap(*s)))
	}
	return (*s)[:n]
}

// join indexes a flow with the given path at active position i; the
// flows at i and beyond move up one. Its crossings go into their rows in
// flow order, and attach gives it a component. A stale index is left
// alone.
//
// hot
func (ix *incidence) join(i int, path []int) {
	if !ix.built {
		return
	}
	f := int32(i)
	if i < len(ix.paths) {
		ix.shift(f, 1)
	}
	ix.paths = slices.Insert(ix.paths, i, path)
	for _, l := range path {
		x := ix.free
		if x >= 0 {
			ix.free = ix.xs[x].next
		} else {
			x = int32(len(ix.xs))
			ix.xs = append(ix.xs, crossing{})
		}
		prev, cur := int32(-1), ix.rowHead[l]
		for cur >= 0 && ix.xs[cur].flow <= f {
			prev, cur = cur, ix.xs[cur].next
		}
		ix.xs[x] = crossing{flow: f, next: cur}
		if prev < 0 {
			ix.rowHead[l] = x
		} else {
			ix.xs[prev].next = x
		}
	}
	ix.attach(f)
}

// leave drops the flow at active position i; the flows beyond it move
// down one. Its component is dissolved and the component's other flows,
// if any, are attached again, which re-splits what the flow alone held
// together. A stale index is left alone.
//
// hot
func (ix *incidence) leave(i int) {
	if !ix.built {
		return
	}
	f := int32(i)
	path := ix.paths[i]
	for _, l := range path {
		prev, cur := int32(-1), ix.rowHead[l]
		for cur >= 0 {
			next := ix.xs[cur].next
			if ix.xs[cur].flow != f {
				prev = cur
			} else {
				if prev < 0 {
					ix.rowHead[l] = next
				} else {
					ix.xs[prev].next = next
				}
				ix.xs[cur] = crossing{flow: -1, next: ix.free}
				ix.free = cur
			}
			cur = next
		}
	}
	c := ix.compOf[path[0]]
	rest := ix.rest[:0]
	if ix.compFlows[c] > 1 {
		for g, p := range ix.paths {
			if g == i || ix.compOf[p[0]] != c {
				continue
			}
			if g > i {
				g-- // its position once f is gone
			}
			rest = append(rest, int32(g))
		}
	}
	for l := ix.compHead[c]; l >= 0; l = ix.linkNext[l] {
		ix.compOf[l] = -1
	}
	ix.dropComp(c)
	ix.paths = slices.Delete(ix.paths, i, i+1)
	ix.shift(f+1, -1)
	for _, g := range rest {
		ix.attach(g)
	}
	ix.rest = rest
}

// attach gives flow f, whose crossings are already in their rows, a
// component: every component its links belong to merges into one, and
// its links that belong to none join that one — a new single-flow
// component when there was none to merge.
func (ix *incidence) attach(f int32) {
	path := ix.paths[f]
	c := int32(-1)
	for _, l := range path {
		if d := ix.compOf[l]; d >= 0 && d != c {
			if c < 0 {
				c = d
			} else {
				c = ix.merge(c, d)
			}
		}
	}
	if c < 0 {
		c = int32(len(ix.compHead))
		ix.compHead = append(ix.compHead, -1)
		ix.compFlows = append(ix.compFlows, 0)
		ix.star = append(ix.star, -1)
		ix.cand = append(ix.cand, -1)
	}
	for _, l := range path {
		if ix.compOf[l] < 0 { // not in c already, nor a repeat crossing
			ix.linkNext[l] = -1
			ix.compHead[c] = ix.mergeLinks(ix.compHead[c], int32(l), c)
		}
	}
	ix.compFlows[c]++
	ix.star[c] = ix.starLink(c)
	ix.cand[c] = ix.candidates(c)
}

// shift adds by to every crossing's flow from flow from on.
func (ix *incidence) shift(from, by int32) {
	for x := range ix.xs {
		if ix.xs[x].flow >= from {
			ix.xs[x].flow += by
		}
	}
}

// merge folds component d into component c and returns c's number
// afterwards (dropping d renumbers the last component). c's star and
// candidate chain are stale until attach recomputes them.
func (ix *incidence) merge(c, d int32) int32 {
	ix.compHead[c] = ix.mergeLinks(ix.compHead[c], ix.compHead[d], c)
	ix.compFlows[c] += ix.compFlows[d]
	last := int32(len(ix.compHead) - 1)
	ix.dropComp(d)
	if c == last {
		return d
	}
	return c
}

// dropComp deletes component c's entry, moving the last component into
// its number. It leaves c's links as they are.
func (ix *incidence) dropComp(c int32) {
	last := int32(len(ix.compHead) - 1)
	if c != last {
		ix.compHead[c], ix.compFlows[c] = ix.compHead[last], ix.compFlows[last]
		ix.star[c], ix.cand[c] = ix.star[last], ix.cand[last]
		for l := ix.compHead[c]; l >= 0; l = ix.linkNext[l] {
			ix.compOf[l] = c
		}
	}
	ix.compHead = ix.compHead[:last]
	ix.compFlows = ix.compFlows[:last]
	ix.star = ix.star[:last]
	ix.cand = ix.cand[:last]
}

// mergeLinks merges the ascending link lists a and b, which share no
// link, into one, assigns every link in it to component c, and returns
// its head.
func (ix *incidence) mergeLinks(a, b, c int32) int32 {
	head, tail := int32(-1), int32(-1)
	for a >= 0 || b >= 0 {
		l := b
		if b < 0 || (a >= 0 && a < b) {
			l, a = a, ix.linkNext[a]
		} else {
			b = ix.linkNext[b]
		}
		ix.compOf[l] = c
		if tail < 0 {
			head = l
		} else {
			ix.linkNext[tail] = l
		}
		tail = l
	}
	if tail >= 0 {
		ix.linkNext[tail] = -1
	}
	return head
}

// maxStarFlows bounds a star component's flows (see AllocateNetwork).
const maxStarFlows = 1 << 10

// starLink returns component c's star, or -1 if it has none: the lowest
// link that each of its at most maxStarFlows flows crosses once, at the
// least capacity m, when no flow crosses a link twice, m is positive and
// finite, and every other capacity is m or at least m·(1+2⁻⁴⁰).
func (ix *incidence) starLink(c int32) int32 {
	nf, h := ix.compFlows[c], ix.compHead[c]
	m, star := ix.caps[h], int32(-1)
	for l := h; l >= 0 && nf <= maxStarFlows; l = ix.linkNext[l] {
		n := int32(0)
		for x := ix.rowHead[l]; x >= 0; x = ix.xs[x].next {
			if y := ix.xs[x].next; y >= 0 && ix.xs[y].flow == ix.xs[x].flow {
				return -1 // rows are in flow order: a repeat is adjacent
			}
			n++
		}
		if ix.caps[l] < m {
			m, star = ix.caps[l], -1
		}
		if star < 0 && n == nf && sameBits(ix.caps[l], m) {
			star = l
		}
	}
	if star < 0 || !(m <= math.MaxFloat64 && m > 0) {
		return -1
	}
	for l := h; l >= 0; l = ix.linkNext[l] {
		if k := ix.caps[l]; !sameBits(k, m) && !(k >= m*(1+0x1p-40)) {
			return -1 // inside the margin, or NaN
		}
	}
	return star
}

// candidates threads component c's candidate chain and returns its
// head: walking c's links in ascending order, a link joins the chain
// unless an earlier candidate is its twin. Every link of c is thus a
// candidate or the twin of a lower one, and no two candidates are
// twins. The fill loop scans only the chain; why that is exact is in
// AllocateNetwork's doc comment.
func (ix *incidence) candidates(c int32) int32 {
	head, tail := int32(-1), int32(-1)
	for l := ix.compHead[c]; l >= 0; l = ix.linkNext[l] {
		twin := false
		for k := head; k >= 0 && !twin; k = ix.candNext[k] {
			twin = ix.twins(k, l)
		}
		if twin {
			ix.candNext[l] = -2
			continue
		}
		ix.candNext[l] = -1
		if tail < 0 {
			head = l
		} else {
			ix.candNext[tail] = l
		}
		tail = l
	}
	return head
}

// twins reports whether links k and l are twins: capacities of the
// same bits, and rows that hold the same flows in the same order, each
// the same number of times.
func (ix *incidence) twins(k, l int32) bool {
	if !sameBits(ix.caps[k], ix.caps[l]) {
		return false
	}
	x, y := ix.rowHead[k], ix.rowHead[l]
	for x >= 0 && y >= 0 && ix.xs[x].flow == ix.xs[y].flow {
		x, y = ix.xs[x].next, ix.xs[y].next
	}
	return x < 0 && y < 0
}

// sameBits reports whether two rates are the same float64.
func sameBits(a, b units.Rate) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}
