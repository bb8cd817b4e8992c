package experiments

// This file generates cluster-scale trace-driven scenarios: many jobs
// arriving on a fabric topology over time, the setting where MLTCP's
// per-bottleneck self-interleaving has to add up to a cluster-wide
// effect. The generator turns a seeded Poisson arrival process into an
// ordinary config.Scenario — placement, arrival offsets, and iteration
// budgets are baked into the job list — so the scenario runs through the
// same backends, harness, and telemetry as every hand-written one, with
// all determinism contracts intact.

import (
	"context"
	"fmt"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/sim"
	"mltcp/internal/workload"
)

// ClusterOpts parameterizes ClusterScenario. The zero value yields the
// standard 100-job fat-tree(8) trace.
type ClusterOpts struct {
	// Topology is the fabric (default fat-tree k=8: 32 racks, 128 hosts).
	Topology *config.Topology
	// Jobs is the number of arriving jobs (default 100).
	Jobs int
	// ArrivalRatePerSec is the Poisson arrival rate (default 2).
	ArrivalRatePerSec float64
	// MeanIters is the mean per-job iteration budget; each job draws
	// uniformly from [1, 2·MeanIters-1] (default 40).
	MeanIters int
	// DurationSec is the horizon (default 120).
	DurationSec float64
	// Profiles cycles job model shapes (default all built-ins).
	Profiles []string
	// Seed drives the arrival, placement, and budget streams. The run
	// seed passed to the backend is separate: it perturbs noise, not the
	// trace shape.
	Seed uint64
	// Policy is the scheduling scheme (default mltcp).
	Policy string
}

// ClusterScenario generates a trace-driven cluster scenario: jobs arrive
// by a seeded Poisson process, land on seeded random rack pairs, and
// depart after a seeded iteration budget. The result is a pure function
// of opts — two calls are identical — so harness replication and trace
// byte-identity hold for generated scenarios exactly as for checked-in
// ones.
func ClusterScenario(o ClusterOpts) *config.Scenario {
	topo := o.Topology
	if topo == nil {
		topo = &config.Topology{Kind: config.KindFatTree, K: 8}
	}
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = 100
	}
	rate := o.ArrivalRatePerSec
	if rate <= 0 {
		rate = 2
	}
	meanIters := o.MeanIters
	if meanIters <= 0 {
		meanIters = 40
	}
	dur := o.DurationSec
	if dur <= 0 {
		dur = 120
	}
	profiles := o.Profiles
	if len(profiles) == 0 {
		profiles = workload.Names()
	}
	policy := o.Policy
	if policy == "" {
		policy = "mltcp"
	}

	rng := sim.NewRNG(o.Seed)
	arrivals := workload.NewPoissonArrivals(rate, rng)
	racks := topo.Racks()
	var at sim.Time
	list := make([]config.Job, jobs)
	for i := range list {
		at += arrivals.Next()
		src := rng.Intn(racks)
		dst := rng.Intn(racks)
		if dst == src && racks > 1 {
			// Keep cross-rack traffic the common case; fabrics with one
			// rack fall back to intra-rack flows.
			dst = (dst + 1) % racks
		}
		list[i] = config.Job{
			Name:     fmt.Sprintf("j%03d", i),
			Profile:  profiles[i%len(profiles)],
			OffsetMS: at.Seconds() * 1e3,
			SrcRack:  config.RackName(src),
			DstRack:  config.RackName(dst),
			Iters:    1 + rng.Intn(2*meanIters-1),
			Seed:     uint64(i+1) * 1000,
		}
	}
	zero := 0.0
	return &config.Scenario{
		Name:        fmt.Sprintf("cluster-%s-%dj", topo.Label(), jobs),
		Policy:      policy,
		DurationSec: dur,
		StaggerMS:   &zero, // Poisson offsets already break symmetry
		Topology:    topo,
		Jobs:        list,
	}
}

// ClusterGrid generates the cluster scenario and runs `runs` seeded
// replicas on the fluid backend across the harness worker pool. Replica
// seeds perturb the jobs' noise streams; the trace shape (arrivals,
// placement, budgets) is fixed by opts.Seed.
func ClusterGrid(ctx context.Context, o ClusterOpts, runs int, baseSeed uint64, workers int) ([]*backend.Result, error) {
	return ScenarioGrid(ctx, &backend.Fluid{}, ClusterScenario(o), runs, baseSeed, workers)
}
