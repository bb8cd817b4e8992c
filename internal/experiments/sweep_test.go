package experiments

import (
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/fluid"
	"mltcp/internal/sched"
	"mltcp/internal/sim"
	"mltcp/internal/workload"
)

func TestSlopeInterceptSweep(t *testing.T) {
	t.Parallel()
	pts := SlopeInterceptSweep(10*sim.Millisecond, 0)
	if len(pts) != 7 {
		t.Fatalf("%d points", len(pts))
	}
	byKey := map[[2]float64]SweepPoint{}
	for _, p := range pts {
		byKey[[2]float64{p.Slope, p.Intercept}] = p
	}
	def := byKey[[2]float64{core.DefaultSlope, core.DefaultIntercept}]
	if def.ConvergedAt < 0 {
		t.Fatal("paper defaults did not converge")
	}
	if def.SteadySlowdown > 1.05 {
		t.Errorf("defaults steady slowdown %.3f, want within 5%%", def.SteadySlowdown)
	}
	// A much flatter slope differentiates less and converges no faster
	// than the default.
	flat := byKey[[2]float64{0.5, 0.25}]
	if flat.ConvergedAt >= 0 && def.ConvergedAt >= 0 && flat.ConvergedAt < def.ConvergedAt-5 {
		t.Errorf("flat slope converged at %d, default at %d — expected slower or similar",
			flat.ConvergedAt, def.ConvergedAt)
	}
	// Every configuration with positive slope should eventually settle
	// near ideal (monotone F always interleaves, §3.1).
	for _, p := range pts {
		if p.SteadySlowdown > 1.10 {
			t.Errorf("S=%.2f I=%.2f steady slowdown %.3f, want < 1.10", p.Slope, p.Intercept, p.SteadySlowdown)
		}
	}
}

func TestScalability(t *testing.T) {
	t.Parallel()
	pts := Scalability([]int{2, 4, 8}, 0)
	for _, p := range pts {
		if !p.OptimizerInterleaved {
			t.Errorf("N=%d: optimizer found no interleaving (duty %.2f should fit)",
				p.N, float64(p.N)/9)
		}
		if p.MLTCPConvergedAt < 0 {
			t.Errorf("N=%d: MLTCP did not converge", p.N)
		}
		if p.MLTCPSlowdown > 1.05 {
			t.Errorf("N=%d: MLTCP steady slowdown %.3f", p.N, p.MLTCPSlowdown)
		}
	}
	// The paper's point: MLTCP's convergence stays a bounded number of
	// iterations as N grows (no controller recomputation).
	if last := pts[len(pts)-1]; last.MLTCPConvergedAt > 100 {
		t.Errorf("N=8 converged only at iteration %d", last.MLTCPConvergedAt)
	}
}

// Jobs arriving at different times (§3.1: "regardless of job start
// times"): a third job joining a converged pair forces re-convergence and
// everyone returns to ideal.
func TestDynamicJobArrival(t *testing.T) {
	t.Parallel()
	agg := defaultAgg()
	mk := func(name string, offset sim.Time) *fluid.Job {
		return &fluid.Job{
			Spec: workload.Spec{Name: name, Profile: workload.GPT2, StartOffset: offset},
			Agg:  agg,
		}
	}
	j1 := mk("J1", 0)
	j2 := mk("J2", StaggerOffset)
	j3 := mk("J3", 60*sim.Second+5*sim.Millisecond) // joins long after 1&2 settle
	s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: fluid.WeightedShare{}},
		[]*fluid.Job{j1, j2, j3})
	s.Run(180 * sim.Second)

	ideal := workload.GPT2.IdealIterTime(LinkCapacity)
	for _, j := range []*fluid.Job{j1, j2, j3} {
		n := len(j.IterDurations)
		if n < 20 {
			t.Fatalf("%s: %d iterations", j.Spec.Name, n)
		}
		var sum sim.Time
		for _, d := range j.IterDurations[n-10:] {
			sum += d
		}
		avg := sum / 10
		if diff := avg.Seconds()/ideal.Seconds() - 1; diff > 0.05 || diff < -0.05 {
			t.Errorf("%s steady iteration %v, want within 5%% of %v", j.Spec.Name, avg, ideal)
		}
	}
	// J1 and J2 must have been disturbed by the arrival (some iteration
	// after 60s exceeds ideal) and then recovered — i.e. the system
	// actually re-converged rather than never having been perturbed.
	disturbed := false
	for i, d := range j1.IterDurations {
		at := j1.CommStarts[i]
		if at > 60*sim.Second && d > ideal+50*sim.Millisecond {
			disturbed = true
		}
	}
	if !disturbed {
		t.Log("note: arrival caused no measurable disturbance to J1 (lucky slot)")
	}
}

// A heterogeneous mix of profiles: {GPT-3, 2×GPT-2}. A fully interleaved
// schedule exists (offsets 0 / 0.4 / 1.6 s tile the 3.6 s hyperperiod with
// zero overlap), but MLTCP's distributed descent reproducibly settles in a
// stable limit cycle ~6-7% above ideal, robust to noise — a mixed-period
// case outside the paper's §4 analysis (which studies identical jobs).
// The four-job Fig. 2 mix does reach its optimum, so this is workload-
// specific. Recorded in EXPERIMENTS.md as an observed limitation; the test
// pins the behaviour: near-ideal (under 8%) but measurably off optimal.
func TestHeterogeneousMixNearInterleaves(t *testing.T) {
	t.Parallel()
	agg := defaultAgg()
	profiles := []workload.Profile{workload.GPT3, workload.GPT2, workload.GPT2}
	jobs := make([]*fluid.Job, len(profiles))
	for i, p := range profiles {
		jobs[i] = &fluid.Job{
			Spec: workload.Spec{
				Name:        p.Name,
				Profile:     p,
				StartOffset: sim.Time(i) * StaggerOffset,
				NoiseStd:    5 * sim.Millisecond,
				Seed:        uint64(i + 1),
			},
			Agg: agg,
		}
	}
	s := fluid.New(fluid.Config{Capacity: LinkCapacity, Policy: fluid.WeightedShare{}}, jobs)
	s.Run(250 * sim.Second)
	// Sanity: the interleaved schedule really exists for this mix.
	shapes := []sched.Shape{
		sched.ShapeOf(workload.GPT3, LinkCapacity),
		sched.ShapeOf(workload.GPT2, LinkCapacity),
		sched.ShapeOf(workload.GPT2, LinkCapacity),
	}
	if got := sched.Overlap(shapes, []sim.Time{0, 400 * sim.Millisecond, 1600 * sim.Millisecond}); got != 0 {
		t.Fatalf("reference tiling overlaps by %v; test premise broken", got)
	}
	for _, j := range jobs {
		ideal := j.Spec.Profile.IdealIterTime(LinkCapacity)
		avg := j.AvgIterTime(60)
		diff := avg.Seconds()/ideal.Seconds() - 1
		if diff > 0.08 {
			t.Errorf("%s steady %v, want under 8%% above %v", j.Spec.Name, avg, ideal)
		}
		if diff < -0.01 {
			t.Errorf("%s steady %v below ideal %v — impossible", j.Spec.Name, avg, ideal)
		}
	}
}
