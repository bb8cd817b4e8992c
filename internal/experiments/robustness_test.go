package experiments

import (
	"testing"

	"mltcp/internal/sim"
)

func TestNoiseRobustnessCentralizedDecaysMLTCPHolds(t *testing.T) {
	t.Parallel()
	pts := NoiseRobustness([]sim.Time{0, 20 * sim.Millisecond, 40 * sim.Millisecond}, 300*sim.Second, 0)

	// Noiseless: both near ideal.
	if pts[0].CentralizedSlowdown > 1.02 || pts[0].MLTCPSlowdown > 1.02 {
		t.Errorf("noiseless slowdowns %.3f/%.3f, want ~1.0",
			pts[0].CentralizedSlowdown, pts[0].MLTCPSlowdown)
	}
	// Under noise the static schedule decays while MLTCP self-corrects.
	last := pts[len(pts)-1]
	if last.MLTCPSlowdown > 1.10 {
		t.Errorf("MLTCP slowdown %.3f at σ=%.0fms, want near ideal", last.MLTCPSlowdown, last.SigmaMS)
	}
	if last.CentralizedSlowdown < last.MLTCPSlowdown+0.05 {
		t.Errorf("static centralized (%.3f) should degrade well beyond MLTCP (%.3f) at σ=%.0fms",
			last.CentralizedSlowdown, last.MLTCPSlowdown, last.SigmaMS)
	}
	// Decay should grow with noise.
	if pts[1].CentralizedSlowdown > last.CentralizedSlowdown+0.02 {
		t.Errorf("centralized decay not increasing in σ: %.3f then %.3f",
			pts[1].CentralizedSlowdown, last.CentralizedSlowdown)
	}
}

func TestChurnMLTCPBeatsRenoAndSRPT(t *testing.T) {
	t.Parallel()
	const (
		nJobs = 6
		iters = 60
		seed  = 3
	)
	mltcp := Churn("mltcp", nJobs, iters, seed)
	reno := Churn("reno", nJobs, iters, seed)
	srpt := Churn("srpt", nJobs, iters, seed)

	for _, r := range []ChurnResult{mltcp, reno, srpt} {
		if r.Jobs != nJobs {
			t.Fatalf("%s: only %d/%d jobs completed", r.Scheme, r.Jobs, nJobs)
		}
	}
	// Whole-lifetime means include each job's convergence transient and
	// the 89%-duty heterogeneous mix's residual, so "near ideal" here is
	// a ~1.1 bound rather than the steady-state 1.00.
	if mltcp.MeanSlowdown > 1.10 {
		t.Errorf("MLTCP churn mean slowdown %.3f, want near ideal", mltcp.MeanSlowdown)
	}
	if reno.MeanSlowdown < mltcp.MeanSlowdown+0.03 {
		t.Errorf("Reno churn (%.3f) should be clearly worse than MLTCP (%.3f)",
			reno.MeanSlowdown, mltcp.MeanSlowdown)
	}
	// SRPT's worst job (the big GPT-3-like one) must fare worse than it
	// does under MLTCP — the Fig. 2b victimization, under churn.
	if srpt.MaxSlowdown < mltcp.MaxSlowdown+0.05 {
		t.Errorf("SRPT worst job (%.3f) should exceed MLTCP worst (%.3f)",
			srpt.MaxSlowdown, mltcp.MaxSlowdown)
	}
}

// TestChurnLabelsTenJobsAndMore pins the labels past the ninth job: a
// 12-job churn run names its last jobs Job10, Job11 and Job12, and
// every job completes.
func TestChurnLabelsTenJobsAndMore(t *testing.T) {
	t.Parallel()
	const (
		nJobs = 12
		iters = 3
		seed  = 5
	)
	res := runFluid(churnScenario("mltcp", nJobs, iters, seed), seed, 0)
	if len(res.Jobs) != nJobs {
		t.Fatalf("%d jobs in the result, want %d", len(res.Jobs), nJobs)
	}
	for i, want := range []string{"Job10", "Job11", "Job12"} {
		if got := res.Jobs[9+i].Name; got != want {
			t.Errorf("job %d labeled %q, want %q", 10+i, got, want)
		}
	}
	if r := Churn("mltcp", nJobs, iters, seed); r.Jobs != nJobs {
		t.Errorf("Churn completed %d/%d jobs", r.Jobs, nJobs)
	}
}
