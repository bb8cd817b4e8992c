package experiments

import (
	"context"
	"fmt"
	"math"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/diagnose"
	"mltcp/internal/harness"
)

// ScenarioGrid runs `runs` seeded replicas of one scenario on the given
// backend across the harness worker pool, fidelity-agnostically: the same
// call replicates a fluid or a packet-level experiment. Replica r draws
// every noise stream from sim.DeriveSeed(baseSeed, r), so the result
// slice is identical at any worker count. It returns the first per-point
// error (a scenario the backend rejects fails every point identically, so
// the error surfaces immediately).
func ScenarioGrid(ctx context.Context, b backend.Backend, scn *config.Scenario,
	runs int, baseSeed uint64, workers int) ([]*backend.Result, error) {
	cfg := harness.Config{Workers: workers, BaseSeed: baseSeed}
	rs := harness.Run(ctx, cfg, runs, func(ctx context.Context, pt harness.Point) (*backend.Result, error) {
		return b.Run(ctx, scn, pt.Seed)
	})
	return harness.Values(rs)
}

// CrossFidelityResult quantifies fluid-vs-packet agreement on one
// scenario — the m4-style validation signal that the flow-level
// abstraction and the full TCP stack tell the same convergence story.
type CrossFidelityResult struct {
	Fluid, Packet *backend.Result
	// SlowdownGap[i] is |fluid − packet| steady-state slowdown for job i;
	// MaxSlowdownGap is the worst.
	SlowdownGap    []float64
	MaxSlowdownGap float64
	// OverlapGap is |fluid − packet| overlap score.
	OverlapGap float64
	// BytesPerIterGap[i] is the relative error between the fidelities'
	// per-iteration byte volumes after unscaling the packet rendering
	// (nonzero only from integer rounding at the packet scale).
	BytesPerIterGap []float64
}

// CrossFidelity runs the scenario at both fidelities from the same seed
// and summarizes their agreement. skip is the steady-state transient cut.
func CrossFidelity(ctx context.Context, scn *config.Scenario, seed uint64, skip int) (*CrossFidelityResult, error) {
	fl, err := (&backend.Fluid{}).Run(ctx, scn, seed)
	if err != nil {
		return nil, err
	}
	pk, err := (&backend.Packet{}).Run(ctx, scn, seed)
	if err != nil {
		return nil, err
	}
	if len(fl.Jobs) != len(pk.Jobs) {
		return nil, fmt.Errorf("experiments: fidelities expanded %d vs %d jobs", len(fl.Jobs), len(pk.Jobs))
	}
	res := &CrossFidelityResult{Fluid: fl, Packet: pk}
	for i := range fl.Jobs {
		gap := math.Abs(fl.Jobs[i].Slowdown(skip) - pk.Jobs[i].Slowdown(skip))
		res.SlowdownGap = append(res.SlowdownGap, gap)
		if gap > res.MaxSlowdownGap {
			res.MaxSlowdownGap = gap
		}
		unscaled := float64(pk.Jobs[i].BytesPerIter) / pk.Scale
		res.BytesPerIterGap = append(res.BytesPerIterGap,
			math.Abs(unscaled-float64(fl.Jobs[i].BytesPerIter))/float64(fl.Jobs[i].BytesPerIter))
	}
	res.OverlapGap = math.Abs(fl.OverlapScore - pk.OverlapScore)
	return res, nil
}

// Explain localizes a fidelity disagreement: for each job, the first
// iteration whose fluid and packet completion times differ by more than
// tol relative to the job's ideal iteration time. An aggregate gap
// (MaxSlowdownGap, OverlapGap) says the fidelities disagree; this says
// where they started to.
func (r *CrossFidelityResult) Explain(tol float64) string {
	divs := diagnose.CompareResults(r.Fluid, r.Packet, tol)
	return diagnose.FormatFidelityDivergences(divs, "fluid", "packet")
}

// CanonicalTwoJob is the canonical cross-fidelity scenario: two GPT-2
// jobs under MLTCP on the paper's 50 Gbps bottleneck (1/100 packet
// scale), long enough for both fidelities to reach steady state.
func CanonicalTwoJob() *config.Scenario {
	return &config.Scenario{
		Name:        "canonical-two-gpt2",
		Policy:      "mltcp",
		DurationSec: 90,
		Jobs: []config.Job{
			{Name: "J1", Profile: "gpt2"},
			{Name: "J2", Profile: "gpt2"},
		},
	}
}

// scenarioSteadySkip is the transient cut used when comparing fidelities
// on the canonical scenario (~20 of 50 iterations).
const scenarioSteadySkip = 20

// CrossFidelityCanonical runs the canonical scenario end to end with the
// standard skip, for the validation test and the compare figure.
func CrossFidelityCanonical(ctx context.Context, seed uint64) (*CrossFidelityResult, error) {
	return CrossFidelity(ctx, CanonicalTwoJob(), seed, scenarioSteadySkip)
}
