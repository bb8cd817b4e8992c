package fluid

import (
	"mltcp/internal/units"
)

// Policy allocates the bottleneck capacity among the currently
// communicating jobs. Implementations must return one rate per active job,
// summing to at most the capacity.
type Policy interface {
	// Name labels the policy in traces and figure legends.
	Name() string
	// Allocate returns the instantaneous rate for each active job.
	Allocate(capacity units.Rate, active []*Job) []units.Rate
}

// WeightedShare divides capacity in proportion to each job's Weight():
// F(bytes_ratio) for MLTCP jobs, 1 for plain jobs. With all-nil Agg
// functions this is TCP's fair share; with MLTCP jobs it is the paper's
// unequal sharing that produces the Shift.
type WeightedShare struct{}

// Name implements Policy.
func (WeightedShare) Name() string { return "weighted-share" }

// Allocate implements Policy.
func (p WeightedShare) Allocate(capacity units.Rate, active []*Job) []units.Rate {
	rates := make([]units.Rate, len(active))
	var sc AllocScratch
	p.AllocateInto(capacity, active, rates, &sc)
	return rates
}

// AllocateInto is Allocate writing into rates (length = len(active))
// instead of a fresh slice, with the same values. Each job's weight is
// evaluated once and cached in the scratch — Weight() is a pure function
// of state that does not change within one allocation, so the cached
// value is bit-identical to re-evaluating it in the second loop.
//
// hot
func (WeightedShare) AllocateInto(capacity units.Rate, active []*Job, rates []units.Rate, sc *AllocScratch) {
	weights := sc.weights(len(active))
	var sum float64
	for i, j := range active {
		w := j.Weight()
		weights[i] = w
		sum += w
	}
	if sum <= 0 {
		for i := range rates {
			rates[i] = 0
		}
		return
	}
	for i := range active {
		rates[i] = units.Rate(float64(capacity) * weights[i] / sum)
	}
}

// SRPT gives the whole link to the job with the least remaining bytes
// (ties split equally) — the schedule pFabric's priority queues enforce
// and PDQ's rate control approximates (§2's "distributed approaches").
type SRPT struct {
	// Label overrides the policy name ("pfabric", "pdq") for figures.
	Label string
}

// Name implements Policy.
func (p SRPT) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "srpt"
}

// Allocate implements Policy. Exactly one job wins the link: among
// least-remaining jobs, the one whose communication phase started earliest
// (then lowest index). A fluid model must break ties strictly — in the real
// pFabric, the first packet served lowers that flow's remaining size below
// its peers', so equal flows serialize rather than share; an equal split
// would pin them to an unstable knife-edge forever.
func (SRPT) Allocate(capacity units.Rate, active []*Job) []units.Rate {
	rates := make([]units.Rate, len(active))
	if len(active) == 0 {
		return rates
	}
	win := 0
	for i, j := range active[1:] {
		if better(j, active[win]) {
			win = i + 1
		}
	}
	rates[win] = capacity
	return rates
}

func better(a, b *Job) bool {
	if a.Remaining() != b.Remaining() { //lint:allow simunits exact tie-break keeps the comparator a strict weak order; a tolerance would break sort transitivity
		return a.Remaining() < b.Remaining()
	}
	return a.currentCommStart() < b.currentCommStart()
}

// LAS gives the whole link to the job with the least attained service in
// its current iteration (ties split equally).
type LAS struct{}

// Name implements Policy.
func (LAS) Name() string { return "las" }

// Allocate implements Policy.
func (LAS) Allocate(capacity units.Rate, active []*Job) []units.Rate {
	rates := make([]units.Rate, len(active))
	if len(active) == 0 {
		return rates
	}
	best := active[0].Attained()
	for _, j := range active[1:] {
		if a := j.Attained(); a < best {
			best = a
		}
	}
	var winners []int
	for i, j := range active {
		if j.Attained() <= best+1 {
			winners = append(winners, i)
		}
	}
	for _, i := range winners {
		rates[i] = units.Rate(float64(capacity) / float64(len(winners)))
	}
	return rates
}

// PIAS approximates LAS with a few byte thresholds, as the real system does
// with MLFQ switch queues: a job's band is the number of thresholds its
// attained bytes have crossed; strict priority across bands, equal share
// within the winning band.
type PIAS struct {
	// Thresholds are the demotion boundaries in bytes, ascending.
	Thresholds []int64
}

// Name implements Policy.
func (PIAS) Name() string { return "pias" }

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
func (p PIAS) Allocate(capacity units.Rate, active []*Job) []units.Rate {
	rates := make([]units.Rate, len(active))
	if len(active) == 0 {
		return rates
	}
	best := p.band(active[0])
	for _, j := range active[1:] {
		if b := p.band(j); b < best {
			best = b
		}
	}
	var winners []int
	for i, j := range active {
		if p.band(j) == best {
			winners = append(winners, i)
		}
	}
	for _, i := range winners {
		rates[i] = units.Rate(float64(capacity) / float64(len(winners)))
	}
	return rates
}
