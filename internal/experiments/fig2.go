package experiments

import (
	"mltcp/internal/backend"
	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// Fig2Result compares one scheduling scheme on the four-job scenario of
// Figure 2 (J1 = GPT-3-like, J2–J4 = GPT-2-like over a 50 Gbps bottleneck).
type Fig2Result struct {
	// Scheme names the approach ("centralized", "srpt", "mltcp-reno").
	Scheme string
	// Jobs summarizes each job's steady-state iteration time.
	Jobs []JobStats
	// Bucket and Bandwidth give a per-job bottleneck bandwidth trace for
	// the schedule plot.
	Bucket    sim.Time
	Bandwidth map[string][]units.Rate
	// ConvergedAt is the first iteration index from which every job's
	// iteration time stays within 5% of its ideal (-1 if never; only
	// meaningful for MLTCP, the others are static schedules).
	ConvergedAt int
}

const (
	fig2DurationSec = 120
	fig2Skip        = 30 // iterations of transient skipped in steady-state averages
	fig2Bucket      = 50 * sim.Millisecond
)

// runFig2 runs the four-job scenario under policy (which names the
// scheme) at seed 1, which also seeds the centralized optimizer; a nil
// stagger keeps the default.
func runFig2(policy string, staggerMS *float64) Fig2Result {
	scn := fourJobScenario(policy, fig2DurationSec, 0)
	scn.StaggerMS = staggerMS
	res := runFluid(scn, 1, fig2Bucket)
	out := Fig2Result{
		Scheme:      policy,
		Bucket:      fig2Bucket,
		Bandwidth:   bandwidth(res),
		ConvergedAt: backend.InterleavedAtOf(res.Jobs, convergedTol),
	}
	for _, j := range res.Jobs {
		out.Jobs = append(out.Jobs, jobStats(j, fig2Skip))
	}
	return out
}

// Fig2Centralized regenerates Figure 2(a): the Cassini-like centralized
// scheduler computes interleaving offsets offline; jobs then run without
// contention and achieve their ideal iteration times.
func Fig2Centralized() Fig2Result { return runFig2("centralized", nil) }

// Fig2SRPT regenerates Figure 2(b): pFabric-style SRPT scheduling of the
// four jobs starting together. The three smaller GPT-2 jobs stay near
// ideal while J1 is head-of-line blocked to ~1.5× its ideal.
func Fig2SRPT() Fig2Result {
	simultaneous := 0.0
	return runFig2("srpt", &simultaneous)
}

// Fig2MLTCP regenerates Figure 2(c): all four jobs run MLTCP-Reno (modeled
// as F(bytes_ratio)-weighted sharing) from a near-simultaneous start and
// converge to the centralized optimum's iteration times.
func Fig2MLTCP() Fig2Result { return runFig2("mltcp-reno", nil) }

// Fig2Reno is the no-scheduling baseline (plain fair sharing), not shown
// as its own panel in Figure 2 but the implicit status quo MLTCP improves
// over.
func Fig2Reno() Fig2Result { return runFig2("reno", nil) }
