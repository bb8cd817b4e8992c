package backend

import (
	"context"
	"fmt"

	"mltcp/internal/config"
	"mltcp/internal/fluid"
	"mltcp/internal/obs"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// Fluid runs scenarios on the flow-level simulator: milliseconds of wall
// time, exact phase boundaries, the weighted-share abstraction §4's
// analysis is stated in. The zero value is ready to use.
type Fluid struct {
	// Step overrides the fluid integration step (0 = fluid default 1ms).
	Step sim.Time
	// TraceBucket, when positive, records per-job bandwidth into
	// JobResult.Bandwidth buckets of this width.
	TraceBucket sim.Time
}

// Name implements Backend.
func (*Fluid) Name() string { return NameFluid }

// Run implements Backend.
func (b *Fluid) Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error) {
	s := *scn
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	specs := s.Specs()
	var offsets []sim.Time
	if s.Centralized() {
		offsets = centralOffsets(specs, s.Capacity(), seed)
	}

	cl := compileCluster(&s, specs, seed)
	agg := s.Agg()
	jobs := make([]*fluid.Job, len(specs))
	for i, spec := range specs {
		spec.Seed = jobSeed(seed, spec)
		if offsets != nil {
			spec.StartOffset = offsets[i]
		}
		jobs[i] = &fluid.Job{Spec: spec, Agg: agg, MaxIterations: spec.MaxIterations}
		if cl != nil {
			jobs[i].Path = cl.Paths[i]
		}
	}

	rec := telemetry.FromContext(ctx)
	traceBucket := b.TraceBucket
	if traceBucket == 0 && rec.Enabled() {
		traceBucket = telemetry.DefaultSampleEvery
	}
	if rec.Enabled() {
		mjobs := make([]telemetry.ManifestJob, len(specs))
		for i, spec := range specs {
			mjobs[i] = telemetry.ManifestJob{
				Flow:         i + 1,
				Name:         spec.Label(),
				Profile:      spec.Profile.Name,
				IdealNS:      int64(spec.Profile.IdealIterTime(cl.idealCap(i, s.Capacity()))),
				BytesPerIter: int64(spec.Profile.CommBytes),
			}
			if cl != nil {
				mjobs[i].SrcRack = fmt.Sprintf("rack%d", cl.Placements[i].SrcRack)
				mjobs[i].DstRack = fmt.Sprintf("rack%d", cl.Placements[i].DstRack)
				mjobs[i].Links = cl.PathNames[i]
			}
		}
		m := newManifest(&s, b.Name(), seed, s.Capacity(), 1, mjobs)
		if cl != nil {
			m.Topology = cl.Fab.Kind
			m.Racks = cl.Fab.Racks()
			m.FabricLinks = len(cl.Fab.Links())
		}
		rec.SetManifest(m)
	}

	fcfg := fluid.Config{
		Capacity:    s.Capacity(),
		Policy:      s.FluidPolicy(),
		Step:        b.Step,
		TraceBucket: traceBucket,
		Telemetry:   rec,
	}
	if cl != nil {
		fcfg.Network = cl.nw
	}
	fsim := fluid.New(fcfg, jobs)

	// Integrate in chunks so a cancelled context (harness point timeout,
	// ^C) aborts a long horizon promptly. The obs span is out-of-band: it
	// reads the solver's step count, never steers it.
	span := obs.FromContext(ctx).StartRun(b.Name())
	horizon := s.Duration()
	const chunks = 16
	for c := sim.Time(1); c <= chunks; c++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("backend: fluid run aborted: %w", err)
		}
		fsim.Run(horizon * c / chunks)
	}
	span.Finish(fsim.Steps(), horizon)
	fsim.EmitTrace(rec)

	res := &Result{
		Backend:  b.Name(),
		Scenario: s.Name,
		Policy:   s.Policy,
		Capacity: s.Capacity(),
		Scale:    1,
		Duration: horizon,
	}
	if cl != nil {
		res.Cluster = &ClusterResult{
			Topology: cl.Fab.Kind,
			Racks:    cl.Fab.Racks(),
			Links:    len(cl.Fab.Links()),
		}
	}
	for i, j := range jobs {
		bytes := int64(j.Spec.Profile.CommBytes)
		delivered := int64(len(j.CommEnds)) * bytes
		if j.Communicating() {
			delivered += int64(j.Attained())
		}
		jr := JobResult{
			Name:           j.Spec.Label(),
			Profile:        j.Spec.Profile.Name,
			Ideal:          j.Spec.Profile.IdealIterTime(cl.idealCap(i, s.Capacity())),
			BytesPerIter:   bytes,
			DeliveredBytes: delivered,
			CommStarts:     j.CommStarts,
			CommEnds:       j.CommEnds,
			IterTimes:      j.IterDurations,
		}
		if cl != nil {
			jr.SrcRack = fmt.Sprintf("rack%d", cl.Placements[i].SrcRack)
			jr.DstRack = fmt.Sprintf("rack%d", cl.Placements[i].DstRack)
			jr.PathLinks = cl.PathNames[i]
		}
		for i := range j.CommEnds {
			jr.FCTs = append(jr.FCTs, j.CommEnds[i]-j.CommStarts[i])
		}
		if b.TraceBucket > 0 {
			rates := fsim.Trace(j)
			jr.Bandwidth = make([]float64, len(rates))
			for k, r := range rates {
				jr.Bandwidth[k] = float64(r)
			}
		}
		res.Jobs = append(res.Jobs, jr)
	}
	finishResult(res)
	return res, nil
}
