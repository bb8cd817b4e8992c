package fluid

import (
	"math"
	"reflect"
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// netJob builds a communicating job with a constant weight (F(r) = weight
// for every r) and the given path, ready for Allocate calls.
// allocNetwork runs AllocateNetwork into a fresh rate vector and scratch.
func allocNetwork(nw *Network, active []*Job) []units.Rate {
	rates := make([]units.Rate, len(active))
	AllocateNetwork(nw, active, rates, &AllocScratch{})
	return rates
}

func netJob(name string, weight float64, path []int) *Job {
	j := &Job{
		Spec: workload.Spec{
			Name: name,
			Profile: workload.Profile{
				Name: "t", ComputeTime: sim.Millisecond, CommBytes: units.ByteCount(1e9),
			},
		},
		Path: path,
	}
	if weight != 1 { //lint:allow simunits weight is a test constant; 1 selects the nil-Agg plain-TCP job exactly
		f := core.Linear(0, weight)
		j.Agg = &f
	}
	j.phase = phaseComm
	j.commRemaining = j.TotalBytes()
	return j
}

// relTol is the ulp-scaled tolerance for the allocator invariants: the
// progressive-filling sums accumulate at most a handful of rounding
// errors per link.
const relTol = 1e-9

// checkInvariants asserts the three max-min properties on one allocation:
// per-link conservation, bottleneck saturation for every positive-weight
// flow, and weight-proportional rates among flows frozen at the same
// bottleneck (verified pairwise for identical paths).
func checkInvariants(t *testing.T, nw *Network, jobs []*Job, rates []units.Rate) {
	t.Helper()
	if len(rates) != len(jobs) {
		t.Fatalf("%d rates for %d jobs", len(rates), len(jobs))
	}
	load := make([]float64, len(nw.Capacities))
	for i, j := range jobs {
		if rates[i] < 0 {
			t.Fatalf("job %s: negative rate %v", j.Spec.Label(), rates[i])
		}
		for _, l := range j.Path {
			load[l] += float64(rates[i])
		}
	}
	for l, cap := range nw.Capacities {
		if load[l] > float64(cap)*(1+relTol) {
			t.Fatalf("link %d: load %g exceeds capacity %g", l, load[l], float64(cap))
		}
	}
	for i, j := range jobs {
		if j.Weight() <= 0 {
			continue
		}
		saturated := false
		for _, l := range j.Path {
			if load[l] >= float64(nw.Capacities[l])*(1-relTol) {
				saturated = true
				break
			}
		}
		if !saturated {
			t.Fatalf("job %s (rate %v) has no saturated link on its path", j.Spec.Label(), rates[i])
		}
	}
	// Weighted fairness: identical paths imply the same bottleneck, so
	// rates must be proportional to weights.
	for i := range jobs {
		for k := i + 1; k < len(jobs); k++ {
			if !reflect.DeepEqual(jobs[i].Path, jobs[k].Path) {
				continue
			}
			wi, wk := jobs[i].Weight(), jobs[k].Weight()
			if wi <= 0 || wk <= 0 {
				continue
			}
			got := float64(rates[i]) * wk
			want := float64(rates[k]) * wi
			if math.Abs(got-want) > relTol*math.Max(math.Abs(got), 1) {
				t.Fatalf("jobs %s/%s share a path but rates %v:%v are not %g:%g",
					jobs[i].Spec.Label(), jobs[k].Spec.Label(), rates[i], rates[k], wi, wk)
			}
		}
	}
}

// TestMaxMinRandomTopologies is the allocator invariant property test:
// randomized seeded link sets, paths, and weights, checked against
// conservation, saturation, and weighted fairness on every draw.
func TestMaxMinRandomTopologies(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "u"}
	for seed := uint64(0); seed < 64; seed++ {
		rng := sim.NewRNGAt(42, seed)
		nl := 1 + rng.Intn(12)
		caps := make([]units.Rate, nl)
		for l := range caps {
			caps[l] = units.Rate((1 + rng.Float64()*99) * float64(units.Gbps))
		}
		nw := NewNetwork(caps, nil)
		n := 1 + rng.Intn(len(names)-1)
		jobs := make([]*Job, n)
		for i := range jobs {
			// Path: 1..4 distinct links in random order.
			pl := 1 + rng.Intn(4)
			if pl > nl {
				pl = nl
			}
			perm := make([]int, nl)
			for p := range perm {
				perm[p] = p
			}
			for p := 0; p < pl; p++ { // partial Fisher–Yates
				q := p + rng.Intn(nl-p)
				perm[p], perm[q] = perm[q], perm[p]
			}
			w := 0.25 + rng.Float64()*1.75 // the paper's F range
			jobs[i] = netJob(names[i], w, perm[:pl])
		}
		rates := allocNetwork(nw, jobs)
		checkInvariants(t, nw, jobs, rates)
	}
}

// TestMaxMinSingleLinkBitIdentical pins the degenerate case the golden
// traces rely on: over one link, AllocateNetwork reproduces
// WeightedShare bit for bit, for arbitrary weights.
func TestMaxMinSingleLinkBitIdentical(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		rng := sim.NewRNGAt(7, seed)
		n := 1 + rng.Intn(20)
		jobs := make([]*Job, n)
		netJobs := make([]*Job, n)
		for i := range jobs {
			w := 0.25 + rng.Float64()*1.75
			jobs[i] = netJob("s", w, nil)
			netJobs[i] = netJob("s", w, []int{0})
		}
		cap := units.Rate((1 + rng.Float64()*99) * float64(units.Gbps))
		want := allocRates(WeightedShare{}, cap, jobs)
		nw := NewNetwork([]units.Rate{cap}, []string{"bottleneck"})
		if got := allocNetwork(nw, netJobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AllocateNetwork over one link diverged from WeightedShare", seed)
		}
	}
}

// TestMaxMinParkingLot checks the textbook multi-bottleneck answer: two
// unit links in series, one long flow crossing both and one short flow on
// each. Max-min gives every flow 1/2.
func TestMaxMinParkingLot(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9), units.Rate(1e9)}, nil)
	jobs := []*Job{
		netJob("long", 1, []int{0, 1}),
		netJob("s0", 1, []int{0}),
		netJob("s1", 1, []int{1}),
	}
	rates := allocNetwork(nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	for i, want := range []float64{0.5e9, 0.5e9, 0.5e9} {
		if got := float64(rates[i]); math.Abs(got-want) > relTol*want {
			t.Errorf("flow %d: rate %g, want %g", i, got, want)
		}
	}
}

// TestMaxMinMultiBottleneck checks that a flow leaving its first
// bottleneck's headroom behind claims it on a wider link: cap(0)=1,
// cap(1)=10, long flow on both, local flow on link 1 only.
func TestMaxMinMultiBottleneck(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9), units.Rate(10e9)}, nil)
	jobs := []*Job{
		netJob("long", 1, []int{0, 1}),
		netJob("local", 1, []int{1}),
	}
	rates := allocNetwork(nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	if got, want := float64(rates[0]), 1e9; math.Abs(got-want) > relTol*want {
		t.Errorf("long flow: rate %g, want %g", got, want)
	}
	if got, want := float64(rates[1]), 9e9; math.Abs(got-want) > relTol*want {
		t.Errorf("local flow: rate %g, want %g", got, want)
	}
}

// TestMaxMinWeightScaling pins exact proportional scaling: doubling a
// flow's weight exactly doubles its share against a unit-weight peer on
// the same bottleneck (the MLTCP aggressiveness contract).
func TestMaxMinWeightScaling(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(3e9)}, nil)
	jobs := []*Job{
		netJob("w2", 2, []int{0}),
		netJob("w1", 1, []int{0}),
	}
	rates := allocNetwork(nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	if float64(rates[0]) != 2*float64(rates[1]) { //lint:allow simunits 2× proportionality is exact in binary floating point for the shared-denominator expression
		t.Errorf("rates %v, %v: want exact 2:1 split", rates[0], rates[1])
	}
}

// TestSimNetworkRun integrates the allocator with the solver: two jobs on
// a three-link chain complete iterations, and a job sharing no link with
// them is unaffected by their contention.
func TestSimNetworkRun(t *testing.T) {
	cap := units.Rate(50 * units.Gbps)
	nw := NewNetwork([]units.Rate{cap, cap, cap, cap}, []string{"l0", "l1", "l2", "l3"})
	mk := func(name string, seed uint64, path []int) *Job {
		return &Job{
			Spec: workload.Spec{
				Name:    name,
				Profile: workload.Profile{Name: "gpt2x", ComputeTime: 1600 * sim.Millisecond, CommBytes: 1250 * units.MB},
				Seed:    seed,
			},
			Path: path,
		}
	}
	jobs := []*Job{
		mk("shared-a", 1, []int{0, 1}),
		mk("shared-b", 2, []int{1, 2}),
		mk("alone", 3, []int{3}),
	}
	s := New(Config{Network: nw, Policy: WeightedShare{}}, jobs)
	s.Run(30 * sim.Second)
	for _, j := range jobs {
		if j.Iterations() < 10 {
			t.Fatalf("job %s completed only %d iterations", j.Spec.Label(), j.Iterations())
		}
	}
	// The isolated job runs at its ideal period: 1.8s at 50 Gbps.
	ideal := jobs[2].Spec.Profile.IdealIterTime(cap)
	if got := jobs[2].AvgIterTime(2); got != ideal {
		t.Errorf("isolated job iterates at %v, want ideal %v", got, ideal)
	}
}

// TestSimNetworkValidation pins the constructor's network checks.
func TestSimNetworkValidation(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9)}, nil)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-network policy", func() {
		New(Config{Network: nw, Policy: SRPT{}}, []*Job{netJob("x", 1, []int{0})})
	})
	mustPanic("missing path", func() {
		New(Config{Network: nw, Policy: WeightedShare{}}, []*Job{netJob("x", 1, nil)})
	})
	mustPanic("bad link index", func() {
		New(Config{Network: nw, Policy: WeightedShare{}}, []*Job{netJob("x", 1, []int{3})})
	})
}
