// Package place compiles a scenario's expanded job specs onto its cluster
// fabric: rack placement, host-slot assignment, seeded ECMP path
// selection, and per-path bottleneck capacities. The compilation is a pure
// function of (scenario, seed) — the harness determinism contract extends
// to fabric placement — and is shared by every consumer that needs to know
// where flows land: the fluid backend renders the paths into its max-min
// network, and the learned backend derives shared-bottleneck features from
// them without importing the simulator.
package place

import (
	"mltcp/internal/config"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Cluster is a topology scenario's compiled placement: the fabric graph
// and one placed ECMP path per expanded job spec.
type Cluster struct {
	// Fab is the built fabric graph.
	Fab *netsim.Fabric
	// Placements[i] is spec i's rack assignment.
	Placements []config.Placement
	// Paths[i] is spec i's directed link IDs; PathNames their names
	// ("tor1->agg0.1"); PathCaps the narrowest capacity along the path.
	Paths     [][]int
	PathNames [][]string
	PathCaps  []units.Rate
	// LinkCaps holds every fabric link's capacity by ID, in fabric order
	// — the input a link-indexed allocator needs.
	LinkCaps []units.Rate
}

// IdealCap returns the capacity job i's isolated iteration time is
// computed against: the narrowest link on its path, or the scenario
// bottleneck without a topology. Nil-safe so the dumbbell code path needs
// no branches.
func (c *Cluster) IdealCap(i int, fallback units.Rate) units.Rate {
	if c == nil {
		return fallback
	}
	return c.PathCaps[i]
}

// Compile places the expanded specs onto the scenario topology. Host
// slots within each rack are assigned round-robin in spec order, and each
// flow's ECMP choice derives from its run-scoped job seed
// (sim.DeriveSeed(sim.DeriveSeed(seed, spec.Seed), 1), matching the
// backend's per-job stream derivation), so two calls with equal arguments
// compile identical placements on any goroutine. Returns nil for
// non-topology scenarios.
func Compile(s *config.Scenario, specs []workload.Spec, seed uint64) *Cluster {
	if s.Topology == nil {
		return nil
	}
	fab := s.Topology.Build(s.Capacity())
	nodes, links := fab.Nodes(), fab.Links()
	caps := make([]units.Rate, len(links))
	for l, lk := range links {
		caps[l] = lk.Capacity
	}
	c := &Cluster{
		Fab:        fab,
		Placements: s.Placements(),
		Paths:      make([][]int, len(specs)),
		PathNames:  make([][]string, len(specs)),
		PathCaps:   make([]units.Rate, len(specs)),
		LinkCaps:   caps,
	}
	srcSlot := make([]int, fab.Racks())
	dstSlot := make([]int, fab.Racks())
	for i, spec := range specs {
		p := c.Placements[i]
		srcHosts := fab.RackHosts(p.SrcRack)
		dstHosts := fab.RackHosts(p.DstRack)
		src := srcHosts[srcSlot[p.SrcRack]%len(srcHosts)]
		srcSlot[p.SrcRack]++
		dst := dstHosts[dstSlot[p.DstRack]%len(dstHosts)]
		dstSlot[p.DstRack]++
		if dst == src {
			// Same-rack placement: config validation guarantees at least
			// two hosts per rack, so the next slot is a different host.
			dst = dstHosts[dstSlot[p.DstRack]%len(dstHosts)]
			dstSlot[p.DstRack]++
		}
		choice := sim.DeriveSeed(sim.DeriveSeed(seed, spec.Seed), 1)
		c.Paths[i] = fab.Path(src, dst, choice)
		pn := make([]string, len(c.Paths[i]))
		narrow := caps[c.Paths[i][0]]
		for k, l := range c.Paths[i] {
			// Name only path links: most fabric links are on no path.
			pn[k] = nodes[links[l].From].Name + "->" + nodes[links[l].To].Name
			if caps[l] < narrow {
				narrow = caps[l]
			}
		}
		c.PathNames[i] = pn
		c.PathCaps[i] = narrow
	}
	return c
}
