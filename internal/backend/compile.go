package backend

import (
	"context"

	"mltcp/internal/config"
	"mltcp/internal/place"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// compiled is a scenario made ready for one tier's engine: everything a
// Run needs that does not depend on how the tier simulates or predicts.
type compiled struct {
	// s is the normalized private copy of the scenario.
	s config.Scenario
	// specs are the expanded jobs, with the centralized optimizer's start
	// offsets applied and run-scoped noise seeds derived.
	specs []workload.Spec
	// pc is the fabric placement, nil without a topology.
	pc *place.Cluster
	// res is the Result skeleton at the tier's scale: the header, the
	// cluster header and each job's labels, ideal and byte volume. The
	// tier fills the timelines and the scores.
	res *Result
}

// compile normalizes a private copy of scn and builds the compiled
// scenario for the named tier. admit, when non-nil, sees the normalized
// scenario first and returns the tier's scale or its rejection; nil means
// scale 1. When ctx carries a recorder, the trace manifest is rendered
// from the skeleton.
func compile(ctx context.Context, scn *config.Scenario, tier string, seed uint64,
	admit func(config.Scenario) (float64, error)) (compiled, error) {
	c := compiled{s: *scn}
	s := &c.s
	if err := s.Normalize(); err != nil {
		return compiled{}, err
	}
	scale := 1.0
	if admit != nil {
		var err error
		if scale, err = admit(*s); err != nil {
			return compiled{}, err
		}
	}
	c.specs = s.Specs()
	// Placement derives each flow's ECMP choice from the configured spec
	// seed, so it runs before the run-scoped seeds replace them.
	c.pc = place.Compile(s, c.specs, seed)
	if s.Centralized() {
		for i, off := range centralOffsets(c.specs, s.Capacity(), seed) {
			c.specs[i].StartOffset = off
		}
	}

	capacity := units.Rate(float64(s.Capacity()) * scale)
	res := &Result{
		Backend:  tier,
		Scenario: s.Name,
		Policy:   s.Policy,
		Capacity: capacity,
		Scale:    scale,
		Duration: s.Duration(),
		Jobs:     make([]JobResult, len(c.specs)),
	}
	if c.pc != nil {
		res.Cluster = &ClusterResult{
			Topology: c.pc.Fab.Kind,
			Racks:    c.pc.Fab.Racks(),
			Links:    len(c.pc.Fab.Links()),
		}
	}
	for i := range c.specs {
		spec := &c.specs[i]
		spec.Seed = jobSeed(seed, *spec)
		// Scaling preserves the unscaled ideal: bytes×scale over
		// capacity×scale plus the unscaled compute phase.
		bytes := int64(float64(spec.Profile.CommBytes) * scale)
		jr := &res.Jobs[i]
		jr.Name = spec.Label()
		jr.Profile = spec.Profile.Name
		jr.Ideal = spec.Profile.ComputeTime + c.pc.IdealCap(i, capacity).TransmissionTime(bytes)
		jr.BytesPerIter = bytes
		if c.pc != nil {
			jr.SrcRack = config.RackName(c.pc.Placements[i].SrcRack)
			jr.DstRack = config.RackName(c.pc.Placements[i].DstRack)
			jr.PathLinks = c.pc.PathNames[i]
		}
	}
	c.res = res

	// The manifest reads build info, so an untraced run never builds it.
	if rec := telemetry.FromContext(ctx); rec.Enabled() {
		rec.SetManifest(manifestOf(res, seed))
	}
	return c, nil
}
