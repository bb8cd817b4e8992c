// Package backend runs a config.Scenario at a chosen fidelity behind one
// interface. The fluid backend integrates the flow-level model
// (internal/fluid); the packet backend renders the same scenario as a
// dumbbell topology with full TCP senders (internal/netsim + internal/tcp
// + internal/core); the learned backend predicts the outcome with the
// trained model (internal/learn). All three compile the scenario through
// one step (compile: normalization, job expansion, placement, seeds and
// the Result skeleton) and return the same Result shape, so every layer
// above — experiment sweeps, harness replication, the CLI — is fidelity
// agnostic, and cross-fidelity agreement on a shared scenario becomes a
// checkable property instead of a hand-maintained set of code paths.
//
// Run is a pure function of (scenario, seed): two calls with equal
// arguments return DeepEqual results on any goroutine, which is what lets
// internal/harness replicate backends across a worker pool
// deterministically.
package backend

import (
	"cmp"
	"context"
	"slices"

	"mltcp/internal/config"
	"mltcp/internal/sched"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Backend runs one scenario at one fidelity.
type Backend interface {
	// Name identifies the fidelity ("fluid", "packet", "learned").
	Name() string
	// Run simulates the scenario to its horizon. seed feeds every noise
	// stream in the run (each job derives a private stream from it), so
	// distinct seeds give independent replicas and equal seeds identical
	// results. The scenario is not mutated. ctx cancellation aborts the
	// run between integration chunks with ctx.Err().
	Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error)
}

// JobResult is one job's outcome, common to every fidelity.
type JobResult struct {
	// Name labels the job; Profile names its model shape.
	Name    string
	Profile string
	// Ideal is the isolated iteration time at the backend's scale (every
	// tier preserves the unscaled value by construction).
	Ideal sim.Time
	// BytesPerIter is the configured per-iteration communication volume
	// at the backend's native scale (multiply by 1/Result.Scale for
	// scenario units).
	BytesPerIter int64
	// DeliveredBytes is the total communication volume actually delivered
	// over the run, at the backend's native scale.
	DeliveredBytes int64
	// CommStarts and CommEnds bracket each communication phase. A final
	// phase still in flight at the horizon has a start without an end.
	CommStarts []sim.Time
	CommEnds   []sim.Time
	// IterTimes[i] is CommStarts[i+1] - CommStarts[i], the training
	// iteration durations.
	IterTimes []sim.Time
	// FCTs[i] is CommEnds[i] - CommStarts[i], the per-iteration flow
	// completion times.
	FCTs []sim.Time
	// CwndTrace samples the congestion window over time (packets).
	// Packet backend only: the fluid abstraction has no window — its
	// analogue, the weight F(bytes_ratio), is a pure function of
	// progress.
	CwndTrace []float64
	// FinalCwnd is the last window sample (0 for the fluid and learned
	// backends).
	FinalCwnd float64
	// Bandwidth is the job's delivered rate in bits/second per trace
	// bucket. Fluid backend with TraceBucket set only.
	Bandwidth []float64
	// SrcRack and DstRack name the job's fabric placement ("rack0"), and
	// PathLinks the directed links its flow crosses, in path order.
	// Topology scenarios only.
	SrcRack   string
	DstRack   string
	PathLinks []string
}

// Iterations returns the number of completed communication phases.
func (j JobResult) Iterations() int { return len(j.CommEnds) }

// SteadyIter averages iteration times after skipping the first `skip`
// (the convergence transient; a negative skip counts as 0). If fewer than
// skip+1 iterations exist it averages the second half instead, and
// returns 0 with no iterations.
func (j JobResult) SteadyIter(skip int) sim.Time {
	n := len(j.IterTimes)
	if n == 0 {
		return 0
	}
	if skip < 0 {
		skip = 0
	} else if skip >= n {
		skip = n / 2
	}
	var sum sim.Time
	for _, d := range j.IterTimes[skip:] {
		sum += d
	}
	return sum / sim.Time(n-skip)
}

// Slowdown is SteadyIter(skip) / Ideal.
func (j JobResult) Slowdown(skip int) float64 {
	if j.Ideal <= 0 {
		return 0
	}
	return j.SteadyIter(skip).Seconds() / j.Ideal.Seconds()
}

// Result is one backend run's outcome.
type Result struct {
	// Backend is the fidelity that produced the result.
	Backend string
	// Scenario and Policy echo the normalized scenario.
	Scenario string
	Policy   string
	// Capacity is the bottleneck rate at the backend's native scale;
	// Scale is the factor applied to the scenario (1 for fluid and
	// learned).
	Capacity units.Rate
	Scale    float64
	// Duration is the simulated horizon.
	Duration sim.Time
	// Jobs holds per-job outcomes in scenario order.
	Jobs []JobResult
	// InterleavedAt is the first iteration index from which every job's
	// remaining iteration times stay within InterleaveTol of its ideal
	// (-1 if never within the horizon).
	InterleavedAt int
	// OverlapScore is the fraction of communication time spent overlapping
	// with at least one other job over the second half of the horizon:
	// ∫ max(k-1,0) dt / ∫ k dt for k = concurrently communicating jobs.
	// 0 means fully interleaved; (n-1)/n means all n always collide.
	OverlapScore float64
	// Cluster summarizes fabric-wide structure for topology runs (nil for
	// the single-bottleneck model).
	Cluster *ClusterResult
}

// ClusterResult is the fabric-wide view of a topology run: which job
// pairs contend for links, and how much of their communication actually
// collides. MLTCP's promise is local — flows sharing a bottleneck
// interleave — so the shared-pair overlap dropping while disjoint pairs
// stay untouched is the cluster-scale signature the figures plot.
type ClusterResult struct {
	// Topology labels the fabric ("fattree-4"); Racks and Links are its
	// rack and directed-link counts.
	Topology string `json:"topology"`
	Racks    int    `json:"racks"`
	Links    int    `json:"links"`
	// SharingPairs and DisjointPairs count job pairs that do and do not
	// cross at least one common fabric link.
	SharingPairs  int `json:"sharing_pairs"`
	DisjointPairs int `json:"disjoint_pairs"`
	// SharedOverlap and DisjointOverlap average the pairwise overlap
	// score (second half of the horizon) over each class.
	SharedOverlap   float64 `json:"shared_overlap"`
	DisjointOverlap float64 `json:"disjoint_overlap"`
}

// InterleaveTol is the per-iteration tolerance (relative to ideal) used
// for InterleavedAt, matching the packet-level convergence band used
// throughout the experiments.
const InterleaveTol = 0.08

// InterleavedAtOf returns the first iteration index from which every
// job's remaining iteration times stay within tol of its own ideal (-1 if
// never). Result.InterleavedAt is its value at InterleaveTol; callers that
// need another tolerance (the paper figures in internal/experiments use
// 5%) reuse the same arithmetic.
func InterleavedAtOf(jobs []JobResult, tol float64) int {
	maxIter := 0
	for _, j := range jobs {
		if len(j.IterTimes) > maxIter {
			maxIter = len(j.IterTimes)
		}
	}
	for k := 0; k < maxIter; k++ {
		ok := true
		for _, j := range jobs {
			ideal := j.Ideal.Seconds()
			for _, d := range j.IterTimes[min(k, len(j.IterTimes)):] {
				if diff := d.Seconds()/ideal - 1; diff > tol || diff < -tol {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return k
		}
	}
	return -1
}

// OverlapScoreOf sweeps the jobs' communication intervals clipped to
// [from, until) and returns ∫ max(k-1,0) dt / ∫ k dt, where k(t) is the
// number of jobs communicating at t; Result.OverlapScore is its value
// over the second half of the horizon. Phases without a recorded end are
// treated as extending to `until`.
func OverlapScoreOf(jobs []JobResult, from, until sim.Time) float64 {
	var edges []commEdge
	var stack [64]edgeRun // runs for up to 64 jobs without a heap allocation
	runs := stack[:0]
	for i := range jobs {
		start := len(edges)
		edges = appendCommEdges(edges, &jobs[i], from, until)
		runs = append(runs, edgeRun{start, len(edges)})
	}
	return sweepOverlap(edges, runs)
}

// A commEdge is one end of a clipped communication interval: d = +1 at
// its start, -1 at its end.
type commEdge struct {
	at sim.Time
	d  int
}

// An edgeRun is the span [next, end) of an edge slice holding one job's
// edges in time order; next advances as the sweep consumes them.
type edgeRun struct{ next, end int }

// appendCommEdges appends j's communication intervals clipped to
// [from, until) as start/end edge pairs, in time order.
func appendCommEdges(edges []commEdge, j *JobResult, from, until sim.Time) []commEdge {
	first, sorted := len(edges), true
	for i, s := range j.CommStarts {
		e := until
		if i < len(j.CommEnds) {
			e = j.CommEnds[i]
		}
		if e <= from || s >= until {
			continue
		}
		if s < from {
			s = from
		}
		if e > until {
			e = until
		}
		if e > s {
			if n := len(edges); n > first && s < edges[n-1].at {
				sorted = false
			}
			edges = append(edges, commEdge{s, +1}, commEdge{e, -1})
		}
	}
	if !sorted {
		// Only a malformed timeline gets here: a phase that starts before
		// the previous one ends, or several phases without an end.
		slices.SortFunc(edges[first:], func(a, b commEdge) int { return cmp.Compare(a.at, b.at) })
	}
	return edges
}

// sweepOverlap returns the overlap ratio of the intervals bounded by the
// edges in runs (0 when nothing communicates). It consumes the runs in
// merged time order, advancing each run's next.
//
// Any time order gives the same floats: the sweep adds depth·dt at each
// edge, and between edges at equal times dt = 0, so neither the order of
// ties nor a depth seen only between them changes the sums. A phase
// ending exactly when another starts is therefore interleaved, not
// overlapping.
func sweepOverlap(edges []commEdge, runs []edgeRun) float64 {
	live := runs[:0]
	for _, r := range runs {
		if r.next < r.end {
			live = append(live, r)
		}
	}
	runs = live
	var commTime, overlapTime float64
	depth := 0
	var prev sim.Time // read only once depth > 0, by then set
	for len(runs) > 0 {
		m := 0
		for r := 1; r < len(runs); r++ {
			if edges[runs[r].next].at < edges[runs[m].next].at {
				m = r
			}
		}
		e := edges[runs[m].next]
		if runs[m].next++; runs[m].next == runs[m].end {
			runs[m] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		if depth > 0 {
			dt := (e.at - prev).Seconds()
			commTime += float64(depth) * dt
			if depth > 1 {
				overlapTime += float64(depth-1) * dt
			}
		}
		depth += e.d
		prev = e.at
	}
	if commTime == 0 {
		return 0
	}
	return overlapTime / commTime
}

// finishResult fills the derived fields every backend shares.
func finishResult(r *Result) {
	r.InterleavedAt = InterleavedAtOf(r.Jobs, InterleaveTol)
	r.OverlapScore = OverlapScoreOf(r.Jobs, r.Duration/2, r.Duration)
	finishCluster(r)
}

// finishCluster fills the pairwise cluster scores from the jobs' path
// links and phase timelines. It runs over the same integer-nanosecond
// data whether the Result came from a live run or ResultFromTrace, so
// trace consumers recompute the scores exactly.
func finishCluster(r *Result) {
	c := r.Cluster
	if c == nil {
		return
	}
	c.SharingPairs, c.DisjointPairs = 0, 0
	c.SharedOverlap, c.DisjointOverlap = 0, 0
	from, until := r.Duration/2, r.Duration
	sharing := newPairClassifier(r.Jobs)
	// Every job's edges, built once (runs[i] spans job i's), and its
	// score swept alone.
	var edges []commEdge
	runs := make([]edgeRun, len(r.Jobs))
	alone := make([]float64, len(r.Jobs))
	for i := range r.Jobs {
		start := len(edges)
		edges = appendCommEdges(edges, &r.Jobs[i], from, until)
		runs[i] = edgeRun{start, len(edges)}
		alone[i] = sweepOverlap(edges, []edgeRun{runs[i]})
	}
	for i := range r.Jobs {
		for k := i + 1; k < len(r.Jobs); k++ {
			// The runs OverlapScoreOf sweeps for the pair, so the score
			// is the same float. The sweep drops an empty run first, so
			// a pair with an empty side scores what the other side
			// scored alone.
			ov := alone[i]
			if runs[i].next == runs[i].end {
				ov = alone[k]
			} else if runs[k].next < runs[k].end {
				pair := [2]edgeRun{runs[i], runs[k]}
				ov = sweepOverlap(edges, pair[:])
			}
			if sharing.shared(i, k) {
				c.SharingPairs++
				c.SharedOverlap += ov
			} else {
				c.DisjointPairs++
				c.DisjointOverlap += ov
			}
		}
	}
	if c.SharingPairs > 0 {
		c.SharedOverlap /= float64(c.SharingPairs)
	}
	if c.DisjointPairs > 0 {
		c.DisjointOverlap /= float64(c.DisjointPairs)
	}
}

// A pairClassifier tells whether two jobs' paths cross a common link.
// Job i's path is a bitset over link IDs, bits[i*words:][:words], so a
// pair's test is a few word ANDs.
type pairClassifier struct {
	words int
	bits  []uint64
}

// newPairClassifier numbers the jobs' path links from 0 in order of
// first appearance and sets each job's bits.
func newPairClassifier(jobs []JobResult) pairClassifier {
	hops := 0
	for i := range jobs {
		hops += len(jobs[i].PathLinks)
	}
	pc := pairClassifier{words: hops/64 + 1} // at most hops distinct links
	pc.bits = make([]uint64, pc.words*len(jobs))
	ids := make(map[string]int, hops)
	for i := range jobs {
		for _, name := range jobs[i].PathLinks {
			l, ok := ids[name]
			if !ok {
				l = len(ids)
				ids[name] = l
			}
			pc.bits[i*pc.words+l/64] |= 1 << (l % 64)
		}
	}
	return pc
}

// shared reports whether jobs i and k cross a common link.
func (pc pairClassifier) shared(i, k int) bool {
	for w := 0; w < pc.words; w++ {
		if pc.bits[i*pc.words+w]&pc.bits[k*pc.words+w] != 0 {
			return true
		}
	}
	return false
}

// centralOffsets runs the Cassini-style offline optimizer over the
// scenario's job shapes and returns the interleaving start offsets. The
// shapes use the unscaled capacity: packet scaling preserves periods and
// comm durations, so the same offsets are optimal at either fidelity.
func centralOffsets(specs []workload.Spec, capacity units.Rate, seed uint64) []sim.Time {
	shapes := make([]sched.Shape, len(specs))
	for i, spec := range specs {
		shapes[i] = sched.ShapeOf(spec.Profile, capacity)
	}
	return sched.Optimize(shapes, sched.Options{Seed: seed}).Offsets
}

// jobSeed derives the per-job noise-stream seed from the run seed and the
// spec's configured seed (distinct per spec by construction in
// config.Specs), so replicas are independent and runs reproducible.
func jobSeed(runSeed uint64, spec workload.Spec) uint64 {
	return sim.DeriveSeed(runSeed, spec.Seed)
}
