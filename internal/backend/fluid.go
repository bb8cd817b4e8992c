package backend

import (
	"context"
	"fmt"

	"mltcp/internal/config"
	"mltcp/internal/fluid"
	"mltcp/internal/obs"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// Fluid runs scenarios on the flow-level simulator: milliseconds of wall
// time, exact phase boundaries, the weighted-share abstraction §4's
// analysis is stated in. The zero value is ready to use.
type Fluid struct {
	// TraceBucket, when positive, records per-job bandwidth into
	// JobResult.Bandwidth buckets of this width.
	TraceBucket sim.Time
}

// Name implements Backend.
func (*Fluid) Name() string { return NameFluid }

// Run implements Backend.
func (b *Fluid) Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error) {
	c, err := compile(ctx, scn, b.Name(), seed, nil)
	if err != nil {
		return nil, err
	}
	agg := c.s.Agg()
	jobs := make([]*fluid.Job, len(c.specs))
	for i, spec := range c.specs {
		jobs[i] = &fluid.Job{Spec: spec, Agg: agg, MaxIterations: spec.MaxIterations}
		if c.pc != nil {
			jobs[i].Path = c.pc.Paths[i]
		}
	}

	rec := telemetry.FromContext(ctx)
	traceBucket := b.TraceBucket
	if traceBucket == 0 && rec.Enabled() {
		traceBucket = telemetry.DefaultSampleEvery
	}
	fcfg := fluid.Config{
		Capacity:    c.s.Capacity(),
		Policy:      fluidPolicy(c.s.Policy),
		TraceBucket: traceBucket,
		Telemetry:   rec,
	}
	if c.pc != nil {
		fcfg.Network = fluid.NewNetwork(c.pc.LinkCaps, c.pc.LinkNames)
	}
	fsim := fluid.New(fcfg, jobs)

	// Integrate in chunks so a cancelled context (harness point timeout,
	// ^C) aborts a long horizon promptly. The obs span is out-of-band: it
	// reads the solver's step count, never steers it.
	span := obs.FromContext(ctx).StartRun(b.Name())
	res := c.res
	horizon := res.Duration
	const chunks = 16
	for k := sim.Time(1); k <= chunks; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("backend: fluid run aborted: %w", err)
		}
		fsim.Run(horizon * k / chunks)
	}
	span.Finish(fsim.Steps(), horizon)
	fsim.EmitTrace(rec)

	for i, j := range jobs {
		jr := &res.Jobs[i]
		jr.DeliveredBytes = int64(len(j.CommEnds)) * jr.BytesPerIter
		if j.Communicating() {
			jr.DeliveredBytes += int64(j.Attained())
		}
		jr.CommStarts = j.CommStarts
		jr.CommEnds = j.CommEnds
		jr.IterTimes = j.IterDurations
		for k := range j.CommEnds {
			jr.FCTs = append(jr.FCTs, j.CommEnds[k]-j.CommStarts[k])
		}
		if b.TraceBucket > 0 {
			rates := fsim.Trace(j)
			jr.Bandwidth = make([]float64, len(rates))
			for k, r := range rates {
				jr.Bandwidth[k] = float64(r)
			}
		}
	}
	finishResult(res)
	return res, nil
}

// fluidPolicy maps a scenario policy to its fluid allocator. The
// in-network disciplines have their own; every congestion-control
// policy, and centralized, shares by CC weight, which on a topology runs
// as the network's weighted max-min.
func fluidPolicy(policy string) fluid.Policy {
	switch policy {
	case "srpt", "pdq":
		return fluid.SRPT{}
	case "las":
		return fluid.LAS{}
	case "pias":
		return fluid.PIAS{Thresholds: []int64{int64(100 * units.MB), int64(1000 * units.MB)}}
	default:
		return fluid.WeightedShare{}
	}
}
