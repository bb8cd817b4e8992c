package fluid

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// diffRunner runs AllocateNetwork and the reference allocator side by
// side over a sequence of calls. AllocateNetwork keeps one AllocScratch for the runner's whole
// life — across active-set changes and across networks of different
// sizes — so its incidence index is kept, reused and resized exactly as
// in a simulation; the reference keeps its own scratch the same way.
// Like Sim, the runner reports every change of the active set (by job
// identity and order) to the index as leaves and joins; when the network
// changes it calls Reindex instead, so the next call rebuilds the index.
// After every call the index must equal one built from scratch.
type diffRunner struct {
	t      testing.TB
	sc     AllocScratch
	ref    refScratch
	calls  int
	nw     *Network
	active []*Job
}

// check allocates one active set with both allocators and requires the
// same bits in every rate and the same bottleneck for every flow.
func (d *diffRunner) check(nw *Network, active []*Job) {
	d.t.Helper()
	d.calls++
	if nw != d.nw {
		d.sc.Reindex()
	} else {
		d.sc.inc.apply(indexMoves(d.active, active))
	}
	d.nw, d.active = nw, slices.Clone(active)
	want := make([]units.Rate, len(active))
	got := make([]units.Rate, len(active))
	for i := range got {
		got[i] = units.Rate(math.NaN()) // every element must be written
	}
	refAllocateNetwork(nw, active, want, &d.ref)
	AllocateNetwork(nw, active, got, &d.sc)
	if len(active) > 0 || d.sc.inc.built { // an empty set leaves a stale index stale
		if err := indexMatches(&d.sc.inc, nw.Capacities, active); err != nil {
			d.t.Fatalf("call %d: %v", d.calls, err)
		}
	}
	for i, j := range active {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			d.t.Fatalf("call %d, flow %d (%s, path %v, weight %g): rate %v (%#x), reference %v (%#x)",
				d.calls, i, j.Spec.Label(), j.Path, j.Weight(),
				got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
		}
		if d.sc.Bottleneck[i] != d.ref.bottleneck[i] {
			d.t.Fatalf("call %d, flow %d (%s, path %v): bottleneck %d, reference %d",
				d.calls, i, j.Spec.Label(), j.Path, d.sc.Bottleneck[i], d.ref.bottleneck[i])
		}
	}
}

// indexMove is one change of an indexed active set, as Sim reports it:
// a join of path at position i, or the leave of position i.
type indexMove struct {
	join bool
	i    int
	path []int
}

// indexMoves returns the leaves and joins that turn the index of the
// active set from into the index of to: the members of from that are not
// in a common subsequence of the two leave, last first, then every
// member of to outside it joins at its position, first first.
func indexMoves(from, to []*Job) []indexMove {
	kept := make(map[*Job]bool)
	q := 0
	for _, j := range to {
		for k := q; k < len(from); k++ {
			if from[k] == j {
				kept[j], q = true, k+1
				break
			}
		}
	}
	var moves []indexMove
	for i := len(from) - 1; i >= 0; i-- {
		if !kept[from[i]] {
			moves = append(moves, indexMove{i: i})
		}
	}
	for i, j := range to {
		if !kept[j] {
			moves = append(moves, indexMove{join: true, i: i, path: j.Path})
		}
	}
	return moves
}

// apply reports the moves to ix.
func (ix *incidence) apply(moves []indexMove) {
	for _, m := range moves {
		if m.join {
			ix.join(m.i, m.path)
		} else {
			ix.leave(m.i)
		}
	}
}

// compView is one component of an incidence index in a canonical form:
// its links ascending, each link's row (the flows crossing it, in row
// order), its flow count, its star link (-1 for none) and its candidate
// chain.
type compView struct {
	Links []int
	Rows  [][]int32
	Flows int
	Star  int
	Cands []int
}

// view renders the index's components, ordered by lowest link. It also
// checks the bookkeeping the rendering does not show: every link of a
// component is labelled with it and listed once in ascending order, the
// rows are in flow order and hold only indexed flows, the candidate
// chain is ascending and every other link of the component is marked
// off it, a link outside every component has an empty row, and the free
// crossings are unused.
func (ix *incidence) view() ([]compView, error) {
	comps := make([]compView, len(ix.compHead))
	owned, live := 0, 0
	for c := range ix.compHead {
		cv := &comps[c]
		cv.Flows, cv.Star = int(ix.compFlows[c]), int(ix.star[c])
		flows := map[int32]bool{}
		for l := ix.compHead[c]; l >= 0; l = ix.linkNext[l] {
			if n := len(cv.Links); n > 0 && int(l) <= cv.Links[n-1] {
				return nil, fmt.Errorf("component %d lists link %d after link %d", c, l, cv.Links[n-1])
			}
			if ix.compOf[l] != int32(c) {
				return nil, fmt.Errorf("link %d is in component %d's list but labelled %d", l, c, ix.compOf[l])
			}
			var row []int32
			for x := ix.rowHead[l]; x >= 0; x = ix.xs[x].next {
				f := ix.xs[x].flow
				if f < 0 || int(f) >= len(ix.paths) || (len(row) > 0 && f < row[len(row)-1]) {
					return nil, fmt.Errorf("link %d's row %v then flow %d: not ascending indexed flows", l, row, f)
				}
				row = append(row, f)
				flows[f] = true
			}
			if len(row) == 0 {
				return nil, fmt.Errorf("component %d holds link %d, which no flow crosses", c, l)
			}
			cv.Links = append(cv.Links, int(l))
			cv.Rows = append(cv.Rows, row)
			live += len(row)
		}
		if len(flows) != cv.Flows {
			return nil, fmt.Errorf("component %d counts %d flows, its rows hold %d", c, cv.Flows, len(flows))
		}
		for l := ix.cand[c]; l >= 0; l = ix.candNext[l] {
			if n := len(cv.Cands); (n > 0 && int(l) <= cv.Cands[n-1]) || ix.compOf[l] != int32(c) {
				return nil, fmt.Errorf("component %d's candidate chain %v then link %d", c, cv.Cands, l)
			}
			cv.Cands = append(cv.Cands, int(l))
		}
		for _, l := range cv.Links {
			if (ix.candNext[l] != -2) != slices.Contains(cv.Cands, l) {
				return nil, fmt.Errorf("component %d: link %d has candNext %d, chain %v", c, l, ix.candNext[l], cv.Cands)
			}
		}
		owned += len(cv.Links)
	}
	for l, c := range ix.compOf[:len(ix.caps)] {
		if c >= 0 {
			owned--
		} else if ix.rowHead[l] >= 0 {
			return nil, fmt.Errorf("link %d is in no component but has a row", l)
		}
	}
	if owned != 0 {
		return nil, fmt.Errorf("component labels and component lists disagree by %d links", owned)
	}
	for x := ix.free; x >= 0; x = ix.xs[x].next {
		if ix.xs[x].flow != -1 {
			return nil, fmt.Errorf("free crossing %d still names flow %d", x, ix.xs[x].flow)
		}
		live++
	}
	if live != len(ix.xs) {
		return nil, fmt.Errorf("%d crossings in rows or free, %d allocated", live, len(ix.xs))
	}
	slices.SortFunc(comps, func(a, b compView) int { return a.Links[0] - b.Links[0] })
	return comps, nil
}

// refIndexView computes the canonical components of the active paths
// directly: a union-find over the links each flow crosses, rows in
// active order, each component's star by refStar and its candidate
// chain by refCands.
func refIndexView(caps []units.Rate, active []*Job) []compView {
	parent := make([]int, len(caps))
	for l := range parent {
		parent[l] = l
	}
	root := func(l int) int {
		for parent[l] != l {
			l = parent[l]
		}
		return l
	}
	rows := make([][]int32, len(caps))
	for i, j := range active {
		for _, l := range j.Path {
			rows[l] = append(rows[l], int32(i))
			if a, b := root(j.Path[0]), root(l); a != b {
				parent[max(a, b)] = min(a, b)
			}
		}
	}
	byRoot := map[int]int{}
	var comps []compView
	for l, row := range rows {
		if len(row) == 0 {
			continue
		}
		c, ok := byRoot[root(l)]
		if !ok {
			c = len(comps)
			byRoot[root(l)] = c
			comps = append(comps, compView{})
		}
		cv := &comps[c]
		cv.Links = append(cv.Links, l)
		cv.Rows = append(cv.Rows, row)
	}
	for c := range comps {
		flows := map[int32]bool{}
		for _, row := range comps[c].Rows {
			for _, f := range row {
				flows[f] = true
			}
		}
		comps[c].Flows = len(flows)
		comps[c].Star = refStar(caps, &comps[c])
		comps[c].Cands = refCands(caps, &comps[c])
	}
	return comps
}

// refCands is the candidate chain's rule, read off a rendered
// component by comparing every pair of its links: a link is a
// candidate unless a lower link has a capacity of the same bits and an
// equal row, the same flows in the same order.
func refCands(caps []units.Rate, cv *compView) []int {
	var cands []int
	for i, l := range cv.Links {
		twin := false
		for k := range i {
			twin = twin || sameBits(caps[cv.Links[k]], caps[l]) && slices.Equal(cv.Rows[k], cv.Rows[i])
		}
		if !twin {
			cands = append(cands, l)
		}
	}
	return cands
}

// refStar is starLink's rule, read off a rendered component: no flow
// crosses a link twice, the least capacity m is positive and finite,
// every other capacity is m or at least m·(1+2⁻⁴⁰), and the star is the
// lowest link at m whose row holds every flow. It returns -1 otherwise.
func refStar(caps []units.Rate, cv *compView) int {
	if cv.Flows > maxStarFlows {
		return -1
	}
	m := math.Inf(1)
	for i, l := range cv.Links {
		seen := map[int32]bool{}
		for _, f := range cv.Rows[i] {
			if seen[f] {
				return -1
			}
			seen[f] = true
		}
		if k := float64(caps[l]); math.IsNaN(k) {
			return -1
		} else if k < m {
			m = k
		}
	}
	if m <= 0 || math.IsInf(m, 1) {
		return -1
	}
	star := -1
	for i, l := range cv.Links {
		k := float64(caps[l])
		if k != m && k < m*(1+0x1p-40) {
			return -1
		}
		if k == m && len(cv.Rows[i]) == cv.Flows && star < 0 {
			star = l
		}
	}
	return star
}

// sameView reports whether two renderings hold the same components.
func sameView(a, b []compView) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// indexMatches checks that ix is the index of the active paths on a
// network with the given capacities: the same paths, and the same
// components as refIndexView and as a from-scratch rebuild.
func indexMatches(ix *incidence, caps []units.Rate, active []*Job) error {
	if !ix.built {
		return fmt.Errorf("the index is stale")
	}
	if len(ix.paths) != len(active) {
		return fmt.Errorf("the index holds %d flows, the active set %d", len(ix.paths), len(active))
	}
	for i, j := range active {
		if !slices.Equal(ix.paths[i], j.Path) {
			return fmt.Errorf("flow %d: indexed path %v, active path %v", i, ix.paths[i], j.Path)
		}
	}
	got, err := ix.view()
	if err != nil {
		return err
	}
	if want := refIndexView(caps, active); !sameView(got, want) {
		return fmt.Errorf("index components\n got  %+v\n want %+v", got, want)
	}
	var fresh AllocScratch
	fresh.rebuild(caps, active)
	rebuilt, err := fresh.inc.view()
	if err != nil {
		return fmt.Errorf("rebuilt index: %v", err)
	}
	if !sameView(got, rebuilt) {
		return fmt.Errorf("index components\n got     %+v\n rebuilt %+v", got, rebuilt)
	}
	return nil
}

// diffKinds is the number of weight kinds diffJob distinguishes; random
// pools draw kinds below it, so the paper's F(r) is the common one.
const diffKinds = 8

// diffJob builds a communicating job whose weight is selected by kind:
// 0 plain TCP (weight 1), 1 zero weight, 2 a constant 2, 4 a constant -1,
// 5 NaN, otherwise the paper's F(r) = 1.75·r + 0.25, which moves with the
// job's delivered bytes (set through setProgress), as MLTCP weights do
// between steps.
func diffJob(name string, kind int, path []int) *Job {
	j := netJob(name, 1, path)
	var f core.AggFunc
	switch kind {
	case 0:
		return j
	case 1:
		f = core.Linear(0, 0)
	case 2:
		f = core.Linear(0, 2)
	case 4:
		f = core.Linear(0, -1)
	case 5:
		f = core.Linear(0, math.NaN())
	default:
		f = core.Default()
	}
	j.Agg = &f
	return j
}

// setProgress sets the fraction of the iteration's bytes delivered, which
// is what an MLTCP weight is a function of.
func setProgress(j *Job, frac float64) { j.attained = frac * j.totalBytes }

// TestMaxMinIncidenceSequence walks one scratch through the active-set
// changes that make the incidence index rebuild, comparing every call
// with the reference allocator bit for bit: a flow inserted and removed,
// a same-length set with different members, zero-weight flows (alone and
// beside weighted ones), a path that crosses a link twice, the empty
// set, and reuse on a smaller network and then a larger one again.
func TestMaxMinIncidenceSequence(t *testing.T) {
	g := units.Rate(units.Gbps)
	big := NewNetwork([]units.Rate{10 * g, 10 * g, 4 * g, 10 * g, 1 * g, 10 * g, 10 * g})
	a := diffJob("a", 3, []int{0, 1})
	b := diffJob("b", 0, []int{1, 2})
	c := diffJob("c", 3, []int{2})
	twice := diffJob("twice", 2, []int{3, 4, 3})
	zero := diffJob("zero", 1, []int{4, 5})
	e := diffJob("e", 3, []int{5, 6})
	loneZero := diffJob("lone-zero", 1, []int{6})

	small := NewNetwork([]units.Rate{2 * g, 5 * g})
	x := diffJob("x", 3, []int{0, 1})
	y := diffJob("y", 0, []int{1})
	xx := diffJob("xx", 2, []int{1, 0, 1})

	d := &diffRunner{t: t}
	steps := []struct {
		nw     *Network
		active []*Job
	}{
		{big, []*Job{a, b}},
		{big, []*Job{a, b}},                              // unchanged set: cached index, new weights
		{big, []*Job{a, b, c}},                           // c inserted
		{big, []*Job{a, c}},                              // b removed
		{big, []*Job{a, twice}},                          // same length, different members
		{big, []*Job{twice, zero, e}},                    // zero weight beside weighted flows
		{big, []*Job{zero, loneZero}},                    // only zero weights: no bottleneck
		{big, []*Job{}},                                  // empty set
		{big, []*Job{b, a, c, e}},                        // a different order of members
		{small, []*Job{x, y}},                            // reuse on a smaller network
		{small, []*Job{x, y, xx}},                        // double crossing on the small one
		{big, []*Job{a, b, c, twice, zero, e, loneZero}}, // and larger again
	}
	for i, st := range steps {
		for k, j := range st.active {
			setProgress(j, float64((i+k)%5)/4)
		}
		d.check(st.nw, st.active)
	}
}

// TestMaxMinSingletonComponents checks single-flow components against
// the reference where the bottleneck choice is delicate: fills that tie
// along the path (one link crossed twice, or two capacities one ulp apart
// that cap/w rounds together), zero, negative, NaN and infinite weights,
// and singletons with and without a star beside a multi-flow component
// in the same call. A singleton without a star, or whose weight fails
// the closed form's checks, takes the general fill loop.
func TestMaxMinSingletonComponents(t *testing.T) {
	g := units.Rate(units.Gbps)
	c := 10 * g
	up := units.Rate(math.Nextafter(float64(c), math.Inf(1)))
	// A weight at which c/w and up/w round to the same fill.
	var w float64
	for i := 1; i < 1000 && w == 0; i++ {
		if x := 1 + float64(i)/1000; math.Float64bits(float64(c)/x) == math.Float64bits(float64(up)/x) {
			w = x
		}
	}
	if w == 0 {
		t.Fatal("no weight rounds c/w and nextafter(c)/w to a tie")
	}
	nw := NewNetwork([]units.Rate{
		c, up, up, c, // 0-3: ulp-apart pairs
		2 * g, g, g, 2 * g, // 4-7: a doubled crossing ties a single one
		g, g, 2 * g, g, g, 4 * g, // 8-13: degenerate weights
		4 * g, 4 * g, 4 * g, g, // 14-17: uniform
		10 * g, 4 * g, 10 * g, // 18-20: one multi-flow component
		g, g, // 21-22: a doubled crossing on equal capacities
	})
	all := []*Job{
		netJob("ulp-low", w, []int{1, 0}),  // c/w ties up/w: link 0 (c) wins
		netJob("ulp-high", w, []int{3, 2}), // the tie again: link 2 (up) wins
		netJob("twice-low", 1, []int{4, 5, 4}),
		netJob("twice-high", 1, []int{6, 7, 7}),
		netJob("zero", 0, []int{8}),
		netJob("negative", -1, []int{9, 10}),
		netJob("nan", math.NaN(), []int{11}),
		netJob("inf", math.Inf(1), []int{12, 13}), // both fills 0; rate Inf/Inf
		diffJob("uniform", 3, []int{15, 16, 14}),
		diffJob("uniform-one", 2, []int{17}),
		diffJob("multi-a", 3, []int{18, 19}),
		diffJob("multi-b", 0, []int{19, 20}),
		diffJob("multi-c", 3, []int{20}),
		diffJob("twice-equal", 3, []int{21, 22, 22}), // g/(w+w) < g/w: link 22
	}
	// Without multi-b, multi-a and multi-c are singletons too.
	split := slices.Delete(slices.Clone(all), 11, 12)

	d := &diffRunner{t: t}
	for i, active := range [][]*Job{all, all, split, all} {
		for k, j := range active {
			setProgress(j, float64((i+k)%5)/4)
		}
		d.check(nw, active)
		if i > 0 {
			continue
		}
		// The first call must exercise every shape it is meant to: six
		// singletons with a star (four of them with a weight the closed
		// form refuses), five without, and a multi-flow component
		// without one.
		if stars, fills := starCounts(&d.sc.inc); stars != 6 || fills != 6 {
			t.Fatalf("components: %d with a star, %d without; want 6, 6", stars, fills)
		}
		// The ties break toward the lower link, whichever capacity it
		// has, and a doubled crossing can undercut a lower link.
		for f, want := range map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 13: 22} {
			if got := d.sc.Bottleneck[f]; got != want {
				t.Errorf("%s: bottleneck link %d, want %d", active[f].Spec.Label(), got, want)
			}
		}
	}
}

// starCounts returns how many of the index's components have a star and
// how many do not.
func starCounts(ix *incidence) (stars, fills int) {
	for _, s := range ix.star {
		if s >= 0 {
			stars++
		} else {
			fills++
		}
	}
	return stars, fills
}

// TestMaxMinStarComponents checks the star closed form against the
// reference on multi-flow components, and the cases it must refuse: a
// star on equal capacities and one on the least capacity among larger
// ones, capacities inside the 2⁻⁴⁰ margin, weights whose subset sum
// rounds to the full sum or that include a zero, fills that overflow or
// are subnormal, zero and infinite capacities, and a star lost and regained as flows leave and
// join.
func TestMaxMinStarComponents(t *testing.T) {
	g := units.Rate(units.Gbps)
	tiny := units.Rate(1e-300)
	in := g * (1 + 0x1p-42)  // inside the margin above g
	out := g * (1 + 0x1p-39) // outside it
	inf := units.Rate(math.Inf(1))
	nw := NewNetwork([]units.Rate{
		g, g, g, // 0-2: a star on equal capacities
		4 * g, 2 * g, 10 * g, // 3-5: a star on the least capacity
		in, g, // 6-7: inside the margin
		out, g, // 8-9: outside it
		g, g, // 10-11: tiny weight
		0, g, // 12-13: zero capacity
		inf, g, inf, // 14-16: infinite capacity beside a finite one
		inf,        // 17: infinite capacity alone
		g, g, g, g, // 18-21: lost and regained
		2 * g, g, // 22-23: fills overflow to +Inf
		tiny * (1 + 0x1p-39), tiny, // 24-25: subnormal fills
		g, g, // 26-27: zero weight
	})
	equalA := diffJob("equal-a", 3, []int{0, 1})
	equalB := diffJob("equal-b", 0, []int{2, 1})
	equalC := diffJob("equal-c", 3, []int{1})
	leastA := diffJob("least-a", 3, []int{3, 4})
	leastB := diffJob("least-b", 2, []int{4, 5})
	inA := diffJob("in-a", 3, []int{6, 7})
	inB := diffJob("in-b", 3, []int{7})
	outA := diffJob("out-a", 3, []int{8, 9})
	outB := diffJob("out-b", 3, []int{9})
	// The full sum 1+1e-17 rounds to 1, so link 10 (flow tiny-a only)
	// ties the star's fill and, being lower, is tiny-a's bottleneck.
	tinyA := netJob("tiny-a", 1, []int{10, 11})
	tinyB := netJob("tiny-b", 1e-17, []int{11})
	zeroA := diffJob("zero-a", 3, []int{12, 13})
	zeroB := diffJob("zero-b", 3, []int{13})
	infA := diffJob("inf-a", 3, []int{14, 15})
	infB := diffJob("inf-b", 0, []int{15, 16})
	infC := diffJob("inf-c", 3, []int{17})
	lostA := diffJob("lost-a", 3, []int{18, 19})
	lostB := diffJob("lost-b", 3, []int{19, 20})
	lostC := diffJob("lost-c", 3, []int{20, 21}) // no link is on all three
	lostD := diffJob("lost-d", 3, []int{19, 19}) // crosses the star twice
	// Both fills round to the same bits, +Inf or a subnormal, so the
	// lower link, not the star, is the bottleneck.
	overflow := netJob("overflow", 1e-300, []int{22, 23})
	subnormal := netJob("subnormal", 1e20, []int{24, 25})
	// Beside a zero weight, link 26 carries the whole weight sum too.
	zeroW := diffJob("zero-w", 1, []int{27})
	beside := diffJob("beside", 3, []int{26, 27})

	base := []*Job{equalA, equalB, equalC, leastA, leastB, inA, inB, outA, outB,
		tinyA, tinyB, zeroA, zeroB, infA, infB, infC, lostA, lostB, overflow, subnormal, zeroW, beside}
	wantStar := map[int]int{0: 1, 3: 4, 6: -1, 8: 9, 10: 11, 12: -1, 14: 15, 17: -1, 18: 19, 22: 23, 24: 25, 26: 27}
	d := &diffRunner{t: t}
	sets := [][]*Job{
		base,
		append(slices.Clone(base), lostC), // the star is lost...
		base,                              // ...and regained
		append(slices.Clone(base), lostD),
		base,
	}
	for i, active := range sets {
		for k, j := range active {
			setProgress(j, float64((i+k)%5)/4)
		}
		d.check(nw, active)
		views, err := d.sc.inc.view()
		if err != nil {
			t.Fatal(err)
		}
		for _, cv := range views {
			want, ok := wantStar[cv.Links[0]]
			if cv.Links[0] == 18 && i%2 == 1 {
				want = -1
			}
			if ok && cv.Star != want {
				t.Errorf("set %d: component on links %v has star %d, want %d", i, cv.Links, cv.Star, want)
			}
		}
		for f, want := range map[int]int{9: 10, 18: 22, 19: 24, 21: 26} {
			if got := d.sc.Bottleneck[f]; got != want {
				t.Errorf("set %d: %s's bottleneck is link %d, want %d (the tie with the star)",
					i, active[f].Spec.Label(), got, want)
			}
		}
	}
}

// TestMaxMinTwinLinks checks the candidate chain against the reference
// on components that take the fill loop: twins on equal capacities,
// equal rows on capacities one ulp apart (not twins), a link crossed
// twice by a flow beside a link it crosses once (the same flows, but
// not the same row), zero and NaN weights on twins, and a twin class
// that a join splits and the leave merges again.
func TestMaxMinTwinLinks(t *testing.T) {
	g := units.Rate(units.Gbps)
	up := units.Rate(math.Nextafter(float64(g), math.Inf(1)))
	nw := NewNetwork([]units.Rate{
		g, g, g, g, 4 * g, 4 * g, // 0-5: twins on equal capacities
		g, up, g, // 6-8: equal rows one ulp apart
		g, g, g, // 9-11: a doubled crossing beside a single one
		g, g, g, // 12-14: zero and NaN weights on twins
		g, g, 2 * g, g, // 15-18: a twin class split and merged again
	})
	all := []*Job{
		diffJob("equal-a", 3, []int{0, 1, 2, 4, 5}),
		diffJob("equal-b", 0, []int{1, 2, 3}),
		diffJob("equal-c", 3, []int{3}),
		diffJob("ulp-a", 3, []int{6, 7}),
		diffJob("ulp-b", 2, []int{7, 6, 8}),
		diffJob("ulp-c", 3, []int{8}),
		// Link 10 has the lower fill, so it, not link 9, is the
		// bottleneck: a chain that took its row for link 9's, the same
		// flows once each, would lose it.
		diffJob("twice", 3, []int{10, 9, 10}),
		diffJob("once", 0, []int{9, 10, 11}),
		diffJob("zero", 1, []int{12, 13}),
		diffJob("nan", 5, []int{12, 13, 14}),
		diffJob("nan-beside", 3, []int{14}),
		diffJob("split", 3, []int{15, 16, 17, 17}),
	}
	joiner := diffJob("joiner", 3, []int{16, 18})
	wantCands := map[int][]int{0: {0, 1, 3, 4}, 6: {6, 7, 8}, 9: {9, 10, 11}, 12: {12, 14}, 15: {15, 17}}
	joined := append([]*Job{joiner}, all...) // every other flow moves up one

	d := &diffRunner{t: t}
	for i, active := range [][]*Job{all, joined, all, joined} {
		for k, j := range active {
			setProgress(j, float64((i+k)%5)/4)
		}
		d.check(nw, active)
		views, err := d.sc.inc.view()
		if err != nil {
			t.Fatal(err)
		}
		for _, cv := range views {
			want := wantCands[cv.Links[0]]
			if cv.Links[0] == 15 && i%2 == 1 {
				want = []int{15, 16, 17, 18} // the joiner splits 15 from 16
			}
			if cv.Star >= 0 || !slices.Equal(cv.Cands, want) {
				t.Errorf("set %d: component on links %v: star %d, candidates %v; want no star, %v",
					i, cv.Links, cv.Star, cv.Cands, want)
			}
		}
		for f, want := range map[int]int{6: 10, 7: 10} {
			f += i % 2
			if got := d.sc.Bottleneck[f]; got != want {
				t.Errorf("set %d: %s's bottleneck is link %d, want %d", i, active[f].Spec.Label(), got, want)
			}
		}
	}
}

// TestMaxMinStarFlowBound checks that a component of more than
// maxStarFlows flows has no star, so it takes the general fill loop, and
// that one of exactly maxStarFlows flows has one.
func TestMaxMinStarFlowBound(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Gbps, units.Gbps})
	pool := make([]*Job, maxStarFlows+1)
	for i := range pool {
		pool[i] = diffJob("f", 3, []int{0, 1}[:1+i%2])
		setProgress(pool[i], float64(i%7)/6)
	}
	d := &diffRunner{t: t}
	for _, n := range []int{maxStarFlows, maxStarFlows + 1, maxStarFlows} {
		d.check(nw, pool[:n])
		if stars, fills := starCounts(&d.sc.inc); (stars == 1) != (n <= maxStarFlows) || stars+fills != 1 {
			t.Fatalf("%d flows on one link: %d components with a star, %d without", n, stars, fills)
		}
	}
}

// TestMaxMinMatchesReference drives AllocateNetwork and the reference over random
// fabrics and random sequences of active sets: flows join and leave,
// members are swapped at a constant set size, weights move every call
// (and may be zero, negative or NaN), paths may repeat a link,
// capacities tie or sit one ulp apart, and each sequence hops to a
// smaller network and back onto the same scratch.
func TestMaxMinMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := sim.NewRNGAt(13, seed)
		d := &diffRunner{t: t}
		for _, nl := range []int{8 + rng.Intn(40), 1 + rng.Intn(6), 8 + rng.Intn(40)} {
			nw, pool := randomDiffFabric(rng, nl)
			member := make([]bool, len(pool))
			for step := 0; step < 30; step++ {
				i := rng.Intn(len(pool))
				switch rng.Intn(6) {
				case 0: // insert or remove one flow
					member[i] = !member[i]
				case 1: // swap a member for a non-member
					if k := rng.Intn(len(pool)); member[i] != member[k] {
						member[i], member[k] = member[k], member[i]
					}
				}
				var active []*Job
				for k, j := range pool {
					if member[k] {
						setProgress(j, rng.Float64())
						active = append(active, j)
					}
				}
				d.check(nw, active)
			}
		}
	}
}

// diffCaps are the capacities the random fabrics draw from: few, so that
// ties between candidate bottlenecks are common, and two of them one ulp
// apart, so that cap/w can round to a tie between different capacities.
var diffCaps = []units.Rate{
	1 * units.Gbps, 2 * units.Gbps, 4 * units.Gbps, 10 * units.Gbps,
	units.Rate(math.Nextafter(float64(10*units.Gbps), math.Inf(1))),
}

// randomDiffFabric draws a network of nl links, with capacities from
// diffCaps, and a pool of jobs over it whose paths may cross a link more
// than once.
func randomDiffFabric(rng *sim.RNG, nl int) (*Network, []*Job) {
	caps := make([]units.Rate, nl)
	for l := range caps {
		caps[l] = diffCaps[rng.Intn(len(diffCaps))]
	}
	pool := make([]*Job, 2+rng.Intn(14))
	for i := range pool {
		path := make([]int, 1+rng.Intn(6))
		for p := range path {
			path[p] = rng.Intn(nl) // with replacement: repeats cross a link twice
		}
		pool[i] = diffJob("p", rng.Intn(diffKinds), path)
	}
	return NewNetwork(caps), pool
}

// FuzzMaxMinMatchesReference is the differential comparison under the
// fuzzer: the input bytes choose up to three networks, a job pool on
// each, and a sequence of active sets (one membership bitmask and one
// progress byte per job per step), all run through one scratch.
func FuzzMaxMinMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 2, 2, 0, 1, 0, 2, 3, 1, 1, 2, 4, 0xff, 7, 9, 0x03, 1, 2})
	f.Add([]byte{1, 3, 3, 1, 3, 0, 0, 0, 1, 1, 0, 0, 2, 0x07, 0, 0, 0, 0x05, 0, 0, 0})
	f.Add([]byte{11, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 7, 4, 3, 0, 4, 8, 2, 5, 9, 1, 3,
		1, 7, 10, 3, 2, 2, 2, 1, 6, 6, 0, 2, 0, 9, 0, 4, 0x7f, 10, 20, 30, 40, 50, 60, 70,
		0x3c, 5, 5, 5, 5, 5, 5, 5, 2, 4, 9, 1, 3, 0xaa, 1, 2, 3, 0x55, 4, 5, 6})
	// Single-flow components: a link crossed twice whose fill ties a
	// single crossing's, in both orders, beside a uniform singleton.
	f.Add([]byte{5, 1, 0, 0, 1, 2, 2, 2, 2, 0, 0, 1, 0, 2, 2, 3, 3, 2, 1, 4, 5, 3,
		2, 0x07, 10, 20, 30, 0x07, 40, 50, 60, 0x05, 70, 80})
	// Capacities one ulp apart on singleton paths, in both orders, under
	// a weight that moves every step, so cap/w sometimes rounds to a tie.
	f.Add([]byte{3, 3, 4, 4, 3, 1, 1, 1, 0, 3, 1, 3, 2, 3, 11,
		0x03, 0, 255, 0x03, 1, 254, 0x03, 7, 100, 0x03, 13, 200, 0x03, 29, 31,
		0x03, 64, 128, 0x03, 77, 91, 0x03, 101, 5, 0x03, 127, 3, 0x03, 150, 60,
		0x03, 199, 17, 0x03, 250, 45})
	// Zero, negative and NaN weights on singletons beside a multi-flow
	// component that itself carries a NaN weight.
	f.Add([]byte{7, 0, 0, 1, 0, 2, 3, 2, 3, 5, 0, 0, 1, 1, 1, 2, 4, 0, 3, 5,
		1, 4, 5, 3, 1, 5, 6, 0, 1, 6, 7, 5, 2,
		0x3f, 1, 2, 3, 4, 5, 6, 0x1b, 7, 8, 9, 10, 0x37, 11, 12, 13, 14, 15})
	// Two flows on two links one ulp apart, the lower link the larger:
	// the star (the upper link) must fall back to the fill loop, which
	// breaks a rounded tie toward the lower link.
	f.Add([]byte{1, 4, 3, 1, 1, 0, 1, 3, 1, 1, 0, 3, 10,
		0x03, 0, 255, 0x03, 1, 254, 0x03, 7, 100, 0x03, 13, 200, 0x03, 29, 31, 0x03, 64, 128,
		0x03, 77, 91, 0x03, 101, 5, 0x03, 127, 3, 0x03, 150, 60, 0x03, 199, 17})
	// A star (link 1) whose flows carry zero, NaN and negative weights
	// beside an F(r) one: each mix must fall back to the fill loop. With
	// a zero weight, link 0 ties the star's fill; with a negative one,
	// link 0 or 2 undercuts it.
	f.Add([]byte{2, 0, 0, 0, 3, 0, 1, 1, 0, 1, 5, 1, 1, 2, 4, 1, 0, 1, 3, 7,
		0x0f, 10, 20, 30, 255, 0x09, 40, 250, 0x0c, 60, 255, 0x0a, 80, 200,
		0x07, 90, 100, 110, 0x08, 120, 0x0d, 130, 140, 255, 0x0c, 150, 240})
	// A star lost as a third flow joins and regained as it leaves, and a
	// flow that crosses the would-be star twice.
	f.Add([]byte{3, 0, 0, 0, 0, 2, 1, 0, 1, 3, 1, 1, 2, 0, 1, 2, 3, 3, 5,
		0x03, 10, 20, 0x07, 30, 40, 50, 0x03, 60, 70, 0x06, 80, 90, 0x07, 100, 110, 120, 0x05, 130, 140,
		1, 0, 0, 1, 1, 0, 1, 3, 1, 1, 1, 3, 2, 0x01, 33, 0x03, 66, 99, 0x01, 132})
	// Twins on equal capacities: links 1 and 2 carry the same two
	// flows, and a third flow on link 3 leaves the component no star.
	f.Add([]byte{3, 0, 0, 0, 0, 2, 2, 0, 1, 2, 3, 2, 1, 2, 3, 0, 0, 3, 3,
		3, 0x07, 10, 20, 30, 0x03, 40, 50, 0x07, 60, 70, 80, 0x05, 90, 100})
	// Equal rows on links 0 and 1, one ulp apart (no twins), and link 3
	// crossed twice by a flow that crosses link 2 once beside it.
	f.Add([]byte{3, 3, 4, 3, 3, 2, 3, 0, 1, 2, 3, 2, 1, 0, 1, 3, 2, 3, 2, 3, 3,
		3, 0x07, 10, 20, 30, 0x05, 40, 50, 0x07, 60, 70, 80, 0x06, 90, 100})
	// Twins carrying a zero and a NaN weight, beside an F(r) flow.
	f.Add([]byte{2, 0, 0, 0, 2, 1, 0, 1, 1, 2, 0, 1, 2, 5, 0, 2, 3,
		2, 0x07, 10, 20, 30, 0x03, 40, 50, 0x07, 60, 70, 80})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		d := &diffRunner{t: t}
		for fabric := 0; fabric < 3 && len(data) > 0; fabric++ {
			caps := make([]units.Rate, 1+next()%12)
			for l := range caps {
				caps[l] = diffCaps[next()%len(diffCaps)]
			}
			nw := NewNetwork(caps)
			pool := make([]*Job, 1+next()%8)
			for i := range pool {
				path := make([]int, 1+next()%5)
				for p := range path {
					path[p] = next() % len(caps)
				}
				pool[i] = diffJob("f", next()%diffKinds, path)
			}
			for steps := 1 + next()%12; steps > 0; steps-- {
				mask := next()
				var active []*Job
				for i, j := range pool {
					if mask&(1<<i) != 0 {
						setProgress(j, float64(next())/255)
						active = append(active, j)
					}
				}
				d.check(nw, active)
			}
		}
	})
}

// TestMaxMinReservedScratchAllocatesNothing pins the scratch sizing: once
// reserved for the link capacities, the job count and the total path
// length, as Sim.New does, neither rebuilding the index for every new
// active set (Reindex) nor moving it there by joins and leaves
// allocates, from the first call on.
func TestMaxMinReservedScratchAllocatesNothing(t *testing.T) {
	rng := sim.NewRNGAt(29, 0)
	nw, pool := randomDiffFabric(rng, 40)
	hops := 0
	for _, j := range pool {
		hops += len(j.Path)
	}
	// Sixteen sets, each differing from the one before, growing to the
	// whole pool last, then shrinking to nothing by the same steps.
	sets := make([][]*Job, 16)
	for s := range sets {
		for k, j := range pool {
			if s == len(sets)-1 || (s>>(k%4))&1 == 1 {
				sets[s] = append(sets[s], j)
			}
		}
	}
	for s := len(sets) - 2; s >= 0; s-- {
		sets = append(sets, sets[s])
	}
	sets = append(sets, nil)
	rates := make([]units.Rate, len(pool))
	var sc AllocScratch
	sc.reserve(nw.Capacities, len(pool), hops)
	moves := make([][]indexMove, len(sets))
	var prev []*Job
	for s, active := range sets {
		moves[s], prev = indexMoves(prev, active), active
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, active := range sets {
		sc.Reindex()
		AllocateNetwork(nw, active, rates[:len(active)], &sc)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("AllocateNetwork on a reserved scratch: %d allocations over %d index rebuilds, want 0", n, len(sets))
	}

	sc.reserve(nw.Capacities, len(pool), hops) // an empty index, kept from here on
	runtime.ReadMemStats(&before)
	for s, active := range sets {
		sc.inc.apply(moves[s])
		AllocateNetwork(nw, active, rates[:len(active)], &sc)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("joins, leaves and AllocateNetwork on a reserved scratch: %d allocations over %d active sets, want 0", n, len(sets))
	}
	if err := indexMatches(&sc.inc, nw.Capacities, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSimReindexContract pins the join/leave contract on a churny fabric
// run: a k=8 fat-tree with 48 jobs arriving as a Poisson process and
// leaving after a few iterations, the fabric benchmark's shape. After
// every 1ms step the incidence index Sim keeps by joins and leaves must
// equal a from-scratch build over the current active paths: the same
// components (link sets, rows in order), stars and candidate chains. A
// Sim that changes its active set without reporting it, or an update
// that skips a merge or a re-split, fails here, not as a silently wrong
// rate.
func TestSimReindexContract(t *testing.T) {
	fab := netsim.NewFatTree(8, 100*units.Gbps, 100*units.Gbps)
	caps := make([]units.Rate, len(fab.Links()))
	for l, lk := range fab.Links() {
		caps[l] = lk.Capacity
	}
	rng := sim.NewRNG(7)
	arrivals := workload.NewPoissonArrivals(16, rng)
	profiles := workload.Profiles()
	names := workload.Names()
	hosts := fab.Hosts()
	agg := core.Default()
	var at sim.Time
	jobs := make([]*Job, 48)
	for i := range jobs {
		at += arrivals.Next()
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts)-1)]
		if dst == src {
			dst = hosts[len(hosts)-1]
		}
		jobs[i] = &Job{
			Spec: workload.Spec{
				Name:        fmt.Sprintf("j%02d", i),
				Profile:     profiles[names[i%len(names)]],
				StartOffset: at,
				Seed:        uint64(i + 1),
			},
			Agg:           &agg,
			MaxIterations: 1 + rng.Intn(15),
			Path:          fab.Path(src, dst, rng.Uint64()),
		}
	}
	s := New(Config{Network: NewNetwork(caps), Policy: WeightedShare{}}, jobs)
	checked, sizes := 0, map[int]bool{}
	for s.Now() < 10*sim.Second {
		s.Run(s.Now() + sim.Millisecond)
		if err := indexMatches(&s.scratch.inc, caps, s.active); err != nil {
			t.Fatalf("at %v, %d active: %v", s.Now(), len(s.active), err)
		}
		checked++
		sizes[len(s.active)] = true
	}
	// The run must have churned: many checked steps over many set sizes.
	if checked < 1000 || len(sizes) < 8 {
		t.Fatalf("%d checked steps over %d active-set sizes; the run did not churn", checked, len(sizes))
	}
}
