package backend

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mltcp/internal/config"
	"mltcp/internal/learn"
	"mltcp/internal/obs"
	"mltcp/internal/sim"
	"mltcp/internal/workload"
)

// Learned predicts scenario outcomes with the trained model from
// internal/learn instead of simulating them — the m4-style third fidelity
// tier: microseconds of wall time, model-accuracy error. It synthesizes a
// uniform per-job timeline from the predicted steady-state slowdown, so
// the Result shape (phase timelines, FCTs, delivered bytes) matches the
// exact backends; convergence diagnostics (InterleavedAt, OverlapScore,
// cluster overlaps) come from dedicated model heads, since a uniform
// timeline carries no transient to measure. The zero value serves the
// embedded default model.
type Learned struct {
	// Model overrides the embedded default model (nil = default).
	Model *learn.Model

	// layouts caches the slowdown head's per-job evaluation layout by
	// policy: the layout depends only on the job vector's feature names,
	// which Extract varies only with the policy. Safe for the harness's
	// concurrent Run calls.
	layouts sync.Map // policy string → *learn.JobLayout
}

// Name implements Backend.
func (*Learned) Name() string { return NameLearned }

// model resolves the serving model.
func (b *Learned) model() (*learn.Model, error) {
	if b.Model != nil {
		return b.Model, nil
	}
	return learn.DefaultModel()
}

// Run implements Backend. It is a pure function of (scenario, seed): the
// placement compilation and feature extraction reuse the exact backends'
// seeded streams, and model inference is deterministic arithmetic.
func (b *Learned) Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("backend: learned run aborted: %w", err)
	}
	m, err := b.model()
	if err != nil {
		return nil, err
	}
	slowdownHead := m.Head(learn.HeadSlowdown)
	if slowdownHead == nil {
		return nil, fmt.Errorf("backend: learned model has no %q head", learn.HeadSlowdown)
	}
	c, err := compile(ctx, scn, b.Name(), seed, nil)
	if err != nil {
		return nil, err
	}
	f := learn.Extract(&c.s, c.specs, c.pc)

	span := obs.FromContext(ctx).StartRun(b.Name())
	// The scenario vector feeds every head: hash its names once.
	hv := learn.NewHashedVector(f.Scenario)
	base := make([]float64, learn.Dim)
	hv.AddTo(base)
	predictions := uint64(0)
	res := c.res
	horizon := res.Duration

	var ev *learn.JobEval
	if len(c.specs) > 0 {
		var layout *learn.JobLayout
		if v, ok := b.layouts.Load(res.Policy); ok {
			layout = v.(*learn.JobLayout)
		} else {
			layout = learn.NewJobLayout(slowdownHead, f.Jobs[0])
			b.layouts.Store(res.Policy, layout)
		}
		ev = layout.EvalHashed(base, hv)
	}
	for i, spec := range c.specs {
		shat := ev.Predict(f.Jobs[i])
		predictions++
		if shat < 1 {
			shat = 1
		}
		synthesizeJob(&res.Jobs[i], spec, shat, horizon)
	}

	// Convergence diagnostics from the scenario-level heads. The synthetic
	// timelines are uniform, so recomputing these from the timelines would
	// claim instant convergence; the heads carry what the simulator saw.
	maxIter := 0
	for _, j := range res.Jobs {
		if len(j.IterTimes) > maxIter {
			maxIter = len(j.IterTimes)
		}
	}
	res.InterleavedAt = -1
	if h := m.Head(learn.HeadInterleave); h != nil && maxIter > 0 {
		frac := h.PredictHashed(base, hv)
		predictions++
		if frac < 0.999 {
			k := int(math.Round(frac * float64(maxIter)))
			if k < 0 {
				k = 0
			}
			if k >= maxIter {
				k = maxIter - 1
			}
			res.InterleavedAt = k
		}
	}
	if h := m.Head(learn.HeadOverlap); h != nil {
		res.OverlapScore = clamp01(h.PredictHashed(base, hv))
		predictions++
	}
	if res.Cluster != nil {
		countClusterPairs(res)
		if h := m.Head(learn.HeadSharedOverlap); h != nil && res.Cluster.SharingPairs > 0 {
			res.Cluster.SharedOverlap = clamp01(h.PredictHashed(base, hv))
			predictions++
		}
		if h := m.Head(learn.HeadDisjointLoad); h != nil && res.Cluster.DisjointPairs > 0 {
			res.Cluster.DisjointOverlap = clamp01(h.PredictHashed(base, hv))
			predictions++
		}
	}
	span.Finish(predictions, horizon)
	return res, nil
}

// synthesizeJob fills one job's predicted timeline into its skeleton jr:
// iterations of uniform duration shat×ideal (never faster than ideal),
// communication phases of iter−compute, truncated at the horizon and the
// job's iteration budget, with a trailing in-flight phase when the
// horizon cuts an iteration mid-communication.
func synthesizeJob(jr *JobResult, spec workload.Spec, shat float64, horizon sim.Time) {
	iter := jr.Ideal.Scale(shat)
	if iter < jr.Ideal {
		iter = jr.Ideal
	}
	compute := spec.Profile.ComputeTime
	comm := iter - compute
	bytes := jr.BytesPerIter
	budget := spec.MaxIterations
	// The timeline is uniform, so phase counts follow from arithmetic:
	// phase k communicates over [first+k·iter, first+k·iter+comm]. nFull
	// phases end by the horizon; one more may start and be cut mid-flight.
	first := spec.StartOffset + compute
	started, nFull := 0, 0
	if first < horizon && iter > 0 {
		started = int((horizon-first-1)/iter) + 1 // starts strictly before horizon
		if budget > 0 && started > budget {
			started = budget
		}
		if fit := horizon - first - comm; fit >= 0 {
			nFull = int(fit/iter) + 1
			if nFull > started {
				nFull = started
			}
		}
	}
	// All four slices carve one exactly-sized allocation; the fills are
	// tight constant-stride loops with no per-iteration branching.
	size := 0
	if started > 0 {
		size = 4*started - 1
	}
	buf := make([]sim.Time, size)
	starts := buf[:started]
	ends := buf[started : started+nFull]
	fcts := buf[2*started : 2*started+nFull]
	for k := range starts {
		starts[k] = first + sim.Time(k)*iter
	}
	for k := range ends {
		ends[k] = starts[k] + comm
	}
	for k := range fcts {
		fcts[k] = comm
	}
	jr.CommStarts = starts
	jr.CommEnds = ends
	jr.FCTs = fcts
	jr.DeliveredBytes = int64(nFull) * bytes
	if started > nFull && comm > 0 {
		// In-flight at the horizon: a start without an end, like the exact
		// backends record for unfinished phases, delivering a partial phase.
		jr.DeliveredBytes += int64(float64(bytes) * (horizon - starts[started-1]).Seconds() / comm.Seconds())
	}
	// IterTimes follow the exact backends' convention: start-to-start
	// boundaries, one fewer than recorded starts. A one-iteration job has
	// none — its steady slowdown reads 0 there too.
	if started > 1 {
		it := buf[3*started : 3*started+started-1]
		for k := range it {
			it[k] = iter
		}
		jr.IterTimes = it
	}
}

// countClusterPairs fills SharingPairs/DisjointPairs from the jobs'
// path links — exact structure, no prediction needed.
func countClusterPairs(r *Result) {
	c := r.Cluster
	sharing := newPairClassifier(r.Jobs)
	for i := range r.Jobs {
		for k := i + 1; k < len(r.Jobs); k++ {
			if sharing.shared(i, k) {
				c.SharingPairs++
			} else {
				c.DisjointPairs++
			}
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
