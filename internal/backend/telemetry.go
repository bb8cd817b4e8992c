package backend

import (
	"fmt"
	"strings"

	"mltcp/internal/config"
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

// InterleavedAtOf is the exported form of the InterleavedAt computation:
// the first iteration index from which every job's remaining iteration
// times stay within tol of its own ideal (-1 if never). Exported so
// callers that need a tolerance other than InterleaveTol (the paper
// figures in internal/experiments use 5%) reuse the backend's exact
// arithmetic.
func InterleavedAtOf(jobs []JobResult, tol float64) int {
	return interleavedAt(jobs, tol)
}

// OverlapScoreOf is the exported form of the OverlapScore computation over
// [from, until).
func OverlapScoreOf(jobs []JobResult, from, until sim.Time) float64 {
	return overlapScore(jobs, from, until)
}

// newManifest renders the run's identity for the trace header. Flow IDs
// are 1-based scenario positions in both backends.
func newManifest(s *config.Scenario, backendName string, seed uint64,
	capacity units.Rate, scale float64, jobs []telemetry.ManifestJob) *telemetry.Manifest {
	return &telemetry.Manifest{
		Schema:       telemetry.SchemaVersion,
		Scenario:     s.Name,
		Backend:      backendName,
		Policy:       s.Policy,
		Seed:         seed,
		CapacityGbps: float64(capacity) / 1e9,
		Scale:        scale,
		DurationNS:   int64(s.Duration()),
		Revision:     telemetry.Revision(),
		Jobs:         jobs,
	}
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
