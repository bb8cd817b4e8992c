package backend

import (
	"fmt"
	"strings"

	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// Exported backend names — the single source of truth for name dispatch.
// Compare against these constants (or iterate Names) instead of
// hand-writing the strings.
const (
	NameFluid   = "fluid"
	NamePacket  = "packet"
	NameLearned = "learned"
)

// Names returns the backend names New accepts, in presentation order.
func Names() []string { return []string{NameFluid, NamePacket, NameLearned} }

// New builds a backend by name; unknown names list the valid set.
func New(name string) (Backend, error) {
	switch name {
	case NameFluid:
		return &Fluid{}, nil
	case NamePacket:
		return &Packet{}, nil
	case NameLearned:
		return &Learned{}, nil
	}
	return nil, fmt.Errorf("backend: unknown backend %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// manifestOf renders a Result's header and job labels as the trace
// manifest, the inverse of ResultFromTrace's header code. Flow IDs are
// 1-based job positions on every tier; a learned run's manifest is marked
// predicted.
func manifestOf(r *Result, seed uint64) *telemetry.Manifest {
	m := &telemetry.Manifest{
		Schema:       telemetry.SchemaVersion,
		Scenario:     r.Scenario,
		Backend:      r.Backend,
		Policy:       r.Policy,
		Seed:         seed,
		CapacityGbps: float64(r.Capacity) / 1e9,
		Scale:        r.Scale,
		DurationNS:   int64(r.Duration),
		Revision:     telemetry.Revision(),
		Predicted:    r.Backend == NameLearned,
		Jobs:         make([]telemetry.ManifestJob, len(r.Jobs)),
	}
	if c := r.Cluster; c != nil {
		m.Topology, m.Racks, m.FabricLinks = c.Topology, c.Racks, c.Links
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		m.Jobs[i] = telemetry.ManifestJob{
			Flow:         i + 1,
			Name:         j.Name,
			Profile:      j.Profile,
			IdealNS:      int64(j.Ideal),
			BytesPerIter: j.BytesPerIter,
			SrcRack:      j.SrcRack,
			DstRack:      j.DstRack,
			Links:        j.PathLinks,
		}
	}
	return m
}

// ResultFromTrace reconstructs a Result's job timelines and interleaving
// scores from a trace's manifest and iteration events. Because manifests
// and events carry integer nanoseconds, the scores are computed by the
// same arithmetic over the same values as the producing run — a traced
// run's summary must agree exactly with the untraced Result.
func ResultFromTrace(m *telemetry.Manifest, events []telemetry.Event) (*Result, error) {
	if m == nil {
		return nil, fmt.Errorf("backend: trace has no manifest")
	}
	res := &Result{
		Backend:  m.Backend,
		Scenario: m.Scenario,
		Policy:   m.Policy,
		Capacity: units.Rate(m.CapacityGbps * 1e9),
		Scale:    m.Scale,
		Duration: m.Duration(),
	}
	if m.Topology != "" {
		res.Cluster = &ClusterResult{
			Topology: m.Topology,
			Racks:    m.Racks,
			Links:    m.FabricLinks,
		}
	}
	res.Jobs = make([]JobResult, len(m.Jobs))
	byFlow := make(map[int]*JobResult, len(m.Jobs))
	for i, mj := range m.Jobs {
		res.Jobs[i] = JobResult{
			Name:         mj.Name,
			Profile:      mj.Profile,
			Ideal:        sim.Time(mj.IdealNS),
			BytesPerIter: mj.BytesPerIter,
			SrcRack:      mj.SrcRack,
			DstRack:      mj.DstRack,
			PathLinks:    mj.Links,
		}
		byFlow[mj.Flow] = &res.Jobs[i]
	}
	for _, e := range events {
		j, ok := byFlow[e.Flow]
		if !ok {
			continue
		}
		switch e.Kind {
		case telemetry.KindIterStart:
			j.CommStarts = append(j.CommStarts, e.At)
		case telemetry.KindIterEnd:
			j.CommEnds = append(j.CommEnds, e.At)
			j.FCTs = append(j.FCTs, sim.Time(e.M))
		case telemetry.KindCwnd:
			j.CwndTrace = append(j.CwndTrace, e.V0)
			j.FinalCwnd = e.V0
		}
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		for k := 1; k < len(j.CommStarts); k++ {
			j.IterTimes = append(j.IterTimes, j.CommStarts[k]-j.CommStarts[k-1])
		}
	}
	finishResult(res)
	return res, nil
}
