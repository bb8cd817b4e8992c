package backend

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mltcp/internal/config"
	"mltcp/internal/fluid"
	"mltcp/internal/sim"
)

// smallScenario is a cheap heterogeneous two-job scenario: at the default
// 1/100 packet scale the bottleneck runs at 500 Mbps and an iteration
// takes a few hundred milliseconds, so a few seconds of horizon give
// double-digit iteration counts at packet level.
func smallScenario(policy string) *config.Scenario {
	return &config.Scenario{
		Name:        "small",
		Policy:      policy,
		DurationSec: 5,
		Jobs: []config.Job{
			{Name: "A", ComputeMS: 300, CommMB: 250},
			{Name: "B", ComputeMS: 150, CommMB: 125},
		},
	}
}

func TestPacketCompilationAllCCVariants(t *testing.T) {
	t.Parallel()
	for _, policy := range config.CCPolicyNames() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			res, err := (&Packet{}).Run(context.Background(), smallScenario(policy), 7)
			if err != nil {
				t.Fatal(err)
			}
			if res.Backend != "packet" || res.Scale != 0.01 {
				t.Fatalf("backend=%s scale=%v", res.Backend, res.Scale)
			}
			if len(res.Jobs) != 2 {
				t.Fatalf("expanded %d jobs", len(res.Jobs))
			}
			for _, j := range res.Jobs {
				if j.Iterations() < 3 {
					t.Errorf("job %s: only %d iterations", j.Name, j.Iterations())
				}
				if len(j.FCTs) != len(j.CommEnds) {
					t.Errorf("job %s: %d FCTs for %d completed phases", j.Name, len(j.FCTs), len(j.CommEnds))
				}
				if len(j.CwndTrace) == 0 || j.FinalCwnd <= 0 {
					t.Errorf("job %s: missing cwnd trace", j.Name)
				}
				// Every completed phase delivered exactly BytesPerIter.
				if min := int64(j.Iterations()) * j.BytesPerIter; j.DeliveredBytes < min {
					t.Errorf("job %s: delivered %d < %d completed-iteration bytes",
						j.Name, j.DeliveredBytes, min)
				}
			}
		})
	}
}

func TestPacketHeterogeneousByteVolumes(t *testing.T) {
	t.Parallel()
	scn := &config.Scenario{
		Name: "hetero", Policy: "mltcp", DurationSec: 4,
		Jobs: []config.Job{
			{Name: "big", ComputeMS: 200, CommMB: 400},
			{Name: "small", ComputeMS: 200, CommMB: 50},
		},
	}
	res, err := (&Packet{}).Run(context.Background(), scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Jobs[0].BytesPerIter, int64(400e6*0.01); got != want {
		t.Errorf("big job scaled bytes = %d, want %d", got, want)
	}
	if got, want := res.Jobs[1].BytesPerIter, int64(50e6*0.01); got != want {
		t.Errorf("small job scaled bytes = %d, want %d", got, want)
	}
	if res.Jobs[1].Iterations() <= res.Jobs[0].Iterations() {
		t.Errorf("small job (%d iters) should out-iterate big job (%d)",
			res.Jobs[1].Iterations(), res.Jobs[0].Iterations())
	}
}

func TestPacketRejectsFluidOnlyPolicies(t *testing.T) {
	t.Parallel()
	for _, policy := range config.FluidOnlyPolicyNames() {
		_, err := (&Packet{}).Run(context.Background(), smallScenario(policy), 1)
		if err == nil {
			t.Fatalf("policy %s: packet backend accepted a fluid-only policy", policy)
		}
		msg := err.Error()
		if !strings.Contains(msg, policy) || !strings.Contains(msg, "mltcp-swift") ||
			!strings.Contains(msg, "centralized") {
			t.Errorf("policy %s: error should name the policy and list supported ones, got %q", policy, msg)
		}
	}
}

func TestPacketInvalidScenarios(t *testing.T) {
	t.Parallel()
	cases := map[string]*config.Scenario{
		"unknown policy": {Name: "x", Policy: "bbr",
			Jobs: []config.Job{{Profile: "gpt2"}}},
		"no jobs": {Name: "x", Policy: "mltcp"},
		"scale rounds to zero": {Name: "x", Policy: "mltcp", PacketScale: 1e-9,
			Jobs: []config.Job{{Name: "j", ComputeMS: 100, CommMB: 1}}},
		"bad profile": {Name: "x", Policy: "mltcp",
			Jobs: []config.Job{{Profile: "gpt9"}}},
	}
	for name, scn := range cases {
		if _, err := (&Packet{}).Run(context.Background(), scn, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFluidRejectsInvalidScenario(t *testing.T) {
	t.Parallel()
	if _, err := (&Fluid{}).Run(context.Background(), &config.Scenario{Name: "x", Policy: "bbr",
		Jobs: []config.Job{{Profile: "gpt2"}}}, 1); err == nil {
		t.Error("fluid backend accepted unknown policy")
	}
}

// The fluid backend must reproduce a direct fluid simulation exactly: it
// is a wrapper, not a reimplementation.
func TestFluidBackendMatchesDirectFluid(t *testing.T) {
	t.Parallel()
	scn := &config.Scenario{
		Name: "direct", Policy: "mltcp", DurationSec: 60,
		Jobs: []config.Job{{Name: "J", Profile: "gpt2", Count: 3, NoiseMS: 15, Seed: 5}},
	}
	const seed = 42
	res, err := (&Fluid{}).Run(context.Background(), scn, seed)
	if err != nil {
		t.Fatal(err)
	}

	norm := *scn
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	agg := norm.Agg()
	var jobs []*fluid.Job
	for _, spec := range norm.Specs() {
		spec.Seed = sim.DeriveSeed(seed, spec.Seed)
		jobs = append(jobs, &fluid.Job{Spec: spec, Agg: agg})
	}
	s := fluid.New(fluid.Config{Capacity: norm.Capacity(), Policy: fluid.WeightedShare{}}, jobs)
	s.Run(norm.Duration())

	for i, j := range jobs {
		if !reflect.DeepEqual(res.Jobs[i].IterTimes, j.IterDurations) {
			t.Errorf("job %d: backend iteration times diverge from direct fluid run", i)
		}
	}
}

// TestFluidPolicyMapping checks the allocator every accepted policy name
// runs on the fluid tier: each fluid-only discipline its own, everything
// else the weighted share.
func TestFluidPolicyMapping(t *testing.T) {
	own := map[string]fluid.Policy{
		"srpt": fluid.SRPT{},
		"pdq":  fluid.SRPT{},
		"las":  fluid.LAS{},
		"pias": fluid.PIAS{},
	}
	for _, policy := range config.FluidOnlyPolicyNames() {
		if _, ok := own[policy]; !ok {
			t.Errorf("fluid-only policy %s has no allocator here", policy)
		}
	}
	for _, policy := range config.PolicyNames() {
		want, ok := own[policy]
		if !ok {
			want = fluid.WeightedShare{}
		}
		if got := fluidPolicy(policy); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("%s -> %T, want %T", policy, got, want)
		}
	}
}

// TestTopologyFluidPolicy checks the allocator a topology scenario runs
// on: every policy a fabric accepts shares by weight, which fluid.New
// pairs with the network's weighted max-min; the fluid-only disciplines
// are rejected before they reach it.
func TestTopologyFluidPolicy(t *testing.T) {
	fluidOnly := map[string]bool{}
	for _, policy := range config.FluidOnlyPolicyNames() {
		fluidOnly[policy] = true
	}
	for _, policy := range config.PolicyNames() {
		scn := clusterScenario()
		scn.Policy = policy
		if err := scn.Normalize(); (err != nil) != fluidOnly[policy] {
			t.Errorf("%s on a topology: Normalize() = %v", policy, err)
			continue
		}
		if fluidOnly[policy] {
			continue
		}
		if got := fluidPolicy(policy); reflect.TypeOf(got) != reflect.TypeOf(fluid.WeightedShare{}) {
			t.Errorf("%s on a topology -> %T, want fluid.WeightedShare", policy, got)
		}
	}
}

func TestCentralizedRunsAtBothFidelities(t *testing.T) {
	t.Parallel()
	scn := smallScenario("centralized")
	for _, b := range []Backend{&Fluid{}, &Packet{}} {
		res, err := b.Run(context.Background(), scn, 3)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		// The two jobs' aggregate duty is under 100%, so the optimizer
		// interleaves them and the overlap score must be near zero.
		if res.OverlapScore > 0.15 {
			t.Errorf("%s: centralized overlap score %.3f, want ~0", b.Name(), res.OverlapScore)
		}
	}
}

func TestBackendRunsAreDeterministic(t *testing.T) {
	t.Parallel()
	scn := smallScenario("mltcp")
	scn.Jobs[0].NoiseMS = 10
	scn.Jobs[1].NoiseMS = 10
	for _, b := range []Backend{&Fluid{}, &Packet{}} {
		r1, err1 := b.Run(context.Background(), scn, 9)
		r2, err2 := b.Run(context.Background(), scn, 9)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", b.Name(), err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: same seed produced different results", b.Name())
		}
		r3, err := b.Run(context.Background(), scn, 10)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(r1.Jobs, r3.Jobs) {
			t.Errorf("%s: different seeds produced identical noisy results", b.Name())
		}
	}
}

func TestRunAbortsOnCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range []Backend{&Fluid{}, &Packet{}} {
		if _, err := b.Run(ctx, smallScenario("reno"), 1); err == nil {
			t.Errorf("%s: cancelled context did not abort", b.Name())
		}
	}
}

func TestOverlapScore(t *testing.T) {
	t.Parallel()
	sec := func(s float64) sim.Time { return sim.FromSeconds(s) }
	disjoint := []JobResult{
		{CommStarts: []sim.Time{sec(0)}, CommEnds: []sim.Time{sec(1)}},
		{CommStarts: []sim.Time{sec(1)}, CommEnds: []sim.Time{sec(2)}},
	}
	if got := OverlapScoreOf(disjoint, 0, sec(2)); got != 0 {
		t.Errorf("disjoint phases: score %.3f, want 0", got)
	}
	identical := []JobResult{
		{CommStarts: []sim.Time{sec(0)}, CommEnds: []sim.Time{sec(2)}},
		{CommStarts: []sim.Time{sec(0)}, CommEnds: []sim.Time{sec(2)}},
	}
	if got := OverlapScoreOf(identical, 0, sec(2)); got < 0.49 || got > 0.51 {
		t.Errorf("fully overlapping pair: score %.3f, want 0.5", got)
	}
	// An unfinished phase extends to the window end.
	openEnded := []JobResult{
		{CommStarts: []sim.Time{sec(0)}, CommEnds: nil},
		{CommStarts: []sim.Time{sec(0)}, CommEnds: nil},
	}
	if got := OverlapScoreOf(openEnded, 0, sec(1)); got < 0.49 || got > 0.51 {
		t.Errorf("open-ended pair: score %.3f, want 0.5", got)
	}
	if got := OverlapScoreOf(nil, 0, sec(1)); got != 0 {
		t.Errorf("no jobs: score %.3f, want 0", got)
	}
}

func TestSteadyIterFallback(t *testing.T) {
	t.Parallel()
	j := JobResult{
		Ideal:     sim.Second,
		IterTimes: []sim.Time{4 * sim.Second, 2 * sim.Second, 2 * sim.Second, 2 * sim.Second},
	}
	if got := j.SteadyIter(2); got != 2*sim.Second {
		t.Errorf("SteadyIter(2) = %v", got)
	}
	// skip beyond the recorded iterations falls back to the second half.
	if got := j.SteadyIter(100); got != 2*sim.Second {
		t.Errorf("SteadyIter(100) = %v", got)
	}
	// A negative skip averages every iteration instead of panicking.
	if got := j.SteadyIter(-3); got != 10*sim.Second/4 {
		t.Errorf("SteadyIter(-3) = %v", got)
	}
	if got := (JobResult{}).SteadyIter(5); got != 0 {
		t.Errorf("empty SteadyIter = %v", got)
	}
	if got := j.Slowdown(2); got != 2 {
		t.Errorf("Slowdown = %v", got)
	}
}
