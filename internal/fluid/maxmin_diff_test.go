package fluid

import (
	"math"
	"runtime"
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// diffRunner runs MaxMin and the reference allocator side by side over a
// sequence of calls. MaxMin keeps one AllocScratch for the runner's whole
// life — across active-set changes and across networks of different
// sizes — so its cached incidence index is rebuilt, reused and resized
// exactly as in a simulation; the reference keeps its own scratch the
// same way.
type diffRunner struct {
	t     testing.TB
	sc    AllocScratch
	ref   refScratch
	calls int
}

// check allocates one active set with both allocators and requires the
// same bits in every rate and the same bottleneck for every flow.
func (d *diffRunner) check(nw *Network, active []*Job) {
	d.t.Helper()
	d.calls++
	want := make([]units.Rate, len(active))
	got := make([]units.Rate, len(active))
	for i := range got {
		got[i] = units.Rate(math.NaN()) // every element must be written
	}
	refAllocateNetworkInto(nw, active, want, &d.ref)
	MaxMin{}.AllocateNetworkInto(nw, active, got, &d.sc)
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

// diffJob builds a communicating job whose weight is selected by kind:
// 0 plain TCP (weight 1), 1 zero weight, 2 a constant 2, otherwise the
// paper's F(r) = 1.75·r + 0.25, which moves with the job's delivered bytes
// (set through setProgress), as MLTCP weights do between steps.
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
	default:
		f = core.Default()
	}
	j.Agg = &f
	return j
}

// setProgress sets the fraction of the iteration's bytes delivered, which
// is what an MLTCP weight is a function of.
func setProgress(j *Job, frac float64) { j.attained = frac * j.TotalBytes() }

// TestMaxMinIncidenceSequence walks one scratch through the active-set
// changes the incidence index must notice, comparing every call with the
// reference allocator bit for bit: a flow inserted and removed, a
// same-length set with different members, zero-weight flows (alone and
// beside weighted ones), a path that crosses a link twice, the empty
// set, and reuse on a smaller network and then a larger one again.
func TestMaxMinIncidenceSequence(t *testing.T) {
	g := units.Rate(units.Gbps)
	big := NewNetwork([]units.Rate{10 * g, 10 * g, 4 * g, 10 * g, 1 * g, 10 * g, 10 * g}, nil)
	a := diffJob("a", 3, []int{0, 1})
	b := diffJob("b", 0, []int{1, 2})
	c := diffJob("c", 3, []int{2})
	twice := diffJob("twice", 2, []int{3, 4, 3})
	zero := diffJob("zero", 1, []int{4, 5})
	e := diffJob("e", 3, []int{5, 6})
	loneZero := diffJob("lone-zero", 1, []int{6})

	small := NewNetwork([]units.Rate{2 * g, 5 * g}, nil)
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

// TestMaxMinMatchesReference drives MaxMin and the reference over random
// fabrics and random sequences of active sets: flows join and leave,
// members are swapped at a constant set size, weights move every call,
// paths may repeat a link, capacities tie, and each sequence hops to a
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

// randomDiffFabric draws a network of nl links, with capacities from a
// small set so that ties between candidate bottlenecks are common, and a
// pool of jobs over it whose paths may cross a link more than once.
func randomDiffFabric(rng *sim.RNG, nl int) (*Network, []*Job) {
	levels := []float64{1, 2, 4, 10}
	caps := make([]units.Rate, nl)
	for l := range caps {
		caps[l] = units.Rate(levels[rng.Intn(len(levels))] * float64(units.Gbps))
	}
	pool := make([]*Job, 2+rng.Intn(14))
	for i := range pool {
		path := make([]int, 1+rng.Intn(6))
		for p := range path {
			path[p] = rng.Intn(nl) // with replacement: repeats cross a link twice
		}
		pool[i] = diffJob("p", rng.Intn(5), path)
	}
	return NewNetwork(caps, nil), pool
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
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		levels := []float64{1, 2, 4, 10}
		d := &diffRunner{t: t}
		for fabric := 0; fabric < 3 && len(data) > 0; fabric++ {
			caps := make([]units.Rate, 1+next()%12)
			for l := range caps {
				caps[l] = units.Rate(levels[next()%len(levels)] * float64(units.Gbps))
			}
			nw := NewNetwork(caps, nil)
			pool := make([]*Job, 1+next()%8)
			for i := range pool {
				path := make([]int, 1+next()%5)
				for p := range path {
					path[p] = next() % len(caps)
				}
				pool[i] = diffJob("f", next()%5, path)
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
// reserved for the job count, the total path length and the link count,
// as Sim.New does, the allocator rebuilds its index for every new active
// set, from the first call on, without allocating.
func TestMaxMinReservedScratchAllocatesNothing(t *testing.T) {
	rng := sim.NewRNGAt(29, 0)
	nw, pool := randomDiffFabric(rng, 40)
	hops := 0
	for _, j := range pool {
		hops += len(j.Path)
	}
	// Sixteen sets, each differing from the one before, growing to the
	// whole pool last.
	sets := make([][]*Job, 16)
	for s := range sets {
		for k, j := range pool {
			if s == len(sets)-1 || (s>>(k%4))&1 == 1 {
				sets[s] = append(sets[s], j)
			}
		}
	}
	rates := make([]units.Rate, len(pool))
	var sc AllocScratch
	sc.reserve(len(pool), hops, len(nw.Capacities))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, active := range sets {
		MaxMin{}.AllocateNetworkInto(nw, active, rates[:len(active)], &sc)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("AllocateNetworkInto on a reserved scratch: %d allocations over %d index rebuilds, want 0", n, len(sets))
	}
}
