package fluid

import (
	"mltcp/internal/units"
)

// Policy allocates the bottleneck capacity among the currently
// communicating jobs.
type Policy interface {
	// Allocate writes each active job's instantaneous rate into rates
	// (length = len(active)), summing to at most the capacity. sc is the
	// caller's reusable working set, so a call allocates nothing.
	Allocate(capacity units.Rate, active []*Job, rates []units.Rate, sc *AllocScratch)
}

// WeightedShare divides capacity in proportion to each job's Weight():
// F(bytes_ratio) for MLTCP jobs, 1 for plain jobs. With all-nil Agg
// functions this is TCP's fair share; with MLTCP jobs it is the paper's
// unequal sharing that produces the Shift.
type WeightedShare struct{}

// Allocate implements Policy. Each job's weight is evaluated once and
// cached in the scratch — Weight() is a pure function of state that does
// not change within one allocation, so the cached value is bit-identical
// to re-evaluating it in the second loop.
//
// hot
func (WeightedShare) Allocate(capacity units.Rate, active []*Job, rates []units.Rate, sc *AllocScratch) {
	weights := sc.weights(len(active))
	var sum float64
	for i, j := range active {
		w := j.Weight()
		weights[i] = w
		sum += w
	}
	if sum <= 0 {
		clear(rates)
		return
	}
	for i := range active {
		rates[i] = units.Rate(float64(capacity) * weights[i] / sum)
	}
}

// SRPT gives the whole link to the job with the least remaining bytes —
// the schedule pFabric's priority queues enforce and PDQ's rate control
// approximates (§2's "distributed approaches").
type SRPT struct{}

// Allocate implements Policy. Exactly one job wins the link: among
// least-remaining jobs, the one whose communication phase started earliest
// (then lowest index). A fluid model must break ties strictly — in the real
// pFabric, the first packet served lowers that flow's remaining size below
// its peers', so equal flows serialize rather than share; an equal split
// would pin them to an unstable knife-edge forever.
//
// hot
func (SRPT) Allocate(capacity units.Rate, active []*Job, rates []units.Rate, _ *AllocScratch) {
	clear(rates)
	if len(active) == 0 {
		return
	}
	win := 0
	for i, j := range active[1:] {
		if better(j, active[win]) {
			win = i + 1
		}
	}
	rates[win] = capacity
}

func better(a, b *Job) bool {
	if a.Remaining() != b.Remaining() { //lint:allow simunits exact tie-break keeps the comparator a strict weak order; a tolerance would break sort transitivity
		return a.Remaining() < b.Remaining()
	}
	return a.currentCommStart() < b.currentCommStart()
}

// LAS gives the whole link to the job with the least attained service in
// its current iteration (ties, within one byte, split equally).
type LAS struct{}

// Allocate implements Policy.
//
// hot
func (LAS) Allocate(capacity units.Rate, active []*Job, rates []units.Rate, _ *AllocScratch) {
	if len(active) == 0 {
		return
	}
	best := active[0].Attained()
	for _, j := range active[1:] {
		if a := j.Attained(); a < best {
			best = a
		}
	}
	n := 0
	for _, j := range active {
		if j.Attained() <= best+1 {
			n++
		}
	}
	share := units.Rate(float64(capacity) / float64(n))
	for i, j := range active {
		rates[i] = 0
		if j.Attained() <= best+1 {
			rates[i] = share
		}
	}
}

// PIAS approximates LAS with a few byte thresholds, as the real system does
// with MLFQ switch queues: a job's band is the number of thresholds its
// attained bytes have crossed; strict priority across bands, equal share
// within the winning band.
type PIAS struct {
	// Thresholds are the demotion boundaries in bytes, ascending.
	Thresholds []int64
}

func (p PIAS) band(j *Job) int {
	b := 0
	for _, th := range p.Thresholds {
		if j.Attained() >= float64(th) {
			b++
		}
	}
	return b
}

// Allocate implements Policy.
//
// hot
func (p PIAS) Allocate(capacity units.Rate, active []*Job, rates []units.Rate, _ *AllocScratch) {
	if len(active) == 0 {
		return
	}
	best := p.band(active[0])
	for _, j := range active[1:] {
		if b := p.band(j); b < best {
			best = b
		}
	}
	n := 0
	for _, j := range active {
		if p.band(j) == best {
			n++
		}
	}
	share := units.Rate(float64(capacity) / float64(n))
	for i, j := range active {
		rates[i] = 0
		if p.band(j) == best {
			rates[i] = share
		}
	}
}
