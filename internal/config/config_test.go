package config

import (
	"strings"
	"testing"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

const fourJobScenario = `{
  "name": "fig2",
  "policy": "mltcp",
  "jobs": [
    {"name": "J1", "profile": "gpt3"},
    {"name": "J", "profile": "gpt2", "count": 3}
  ]
}`

func TestLoadDefaults(t *testing.T) {
	s, err := Load(strings.NewReader(fourJobScenario))
	if err != nil {
		t.Fatal(err)
	}
	if s.CapacityGbps != 50 || s.DurationSec != 120 || s.Policy != "mltcp" {
		t.Errorf("defaults not applied: %+v", s)
	}
	if s.Capacity() != 50*units.Gbps {
		t.Errorf("Capacity() = %v", s.Capacity())
	}
	if s.Duration() != 120*sim.Second {
		t.Errorf("Duration() = %v", s.Duration())
	}
}

// TestBuildJobsExpansion checks how a scenario's job list expands into
// the jobs every backend builds: replicas unrolled, named and staggered.
func TestBuildJobsExpansion(t *testing.T) {
	s, err := Load(strings.NewReader(fourJobScenario))
	if err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	if len(specs) != 4 {
		t.Fatalf("expanded %d specs, want 4", len(specs))
	}
	if specs[0].Name != "J1" || specs[1].Name != "J-1" || specs[3].Name != "J-3" {
		t.Errorf("names: %s %s %s %s", specs[0].Name, specs[1].Name, specs[2].Name, specs[3].Name)
	}
	// MLTCP policy: the jobs share an aggressiveness function.
	if s.Agg() == nil {
		t.Error("no aggressiveness function under mltcp policy")
	}
	// Replicas are staggered.
	if specs[1].StartOffset == specs[2].StartOffset {
		t.Error("replicas share a start offset; symmetry would stall convergence")
	}
}

func TestCustomProfile(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "jobs": [{"name": "X", "compute_ms": 900, "comm_mb": 5625}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Specs()[0].Profile
	if p.ComputeTime != 900*sim.Millisecond {
		t.Errorf("compute = %v", p.ComputeTime)
	}
	if p.CommBytes != units.ByteCount(5625*1e6) {
		t.Errorf("bytes = %v", p.CommBytes)
	}
}

func TestSlopeInterceptOverride(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "policy": "mltcp",
	  "slope_intercept": [3.0, 0.5],
	  "jobs": [{"profile": "gpt2"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	agg := s.Agg()
	if agg == nil {
		t.Fatal("nil agg")
	}
	if got := agg.Eval(1); got != 3.5 {
		t.Errorf("F(1) = %v, want 3.5", got)
	}
}

func TestLoadRejects(t *testing.T) {
	cases := map[string]string{
		"no-jobs":         `{"name": "x"}`,
		"unknown-policy":  `{"policy": "bogus", "jobs": [{"profile": "gpt2"}]}`,
		"unknown-profile": `{"jobs": [{"profile": "gpt9"}]}`,
		"both-kinds":      `{"jobs": [{"profile": "gpt2", "comm_mb": 5}]}`,
		"no-kind":         `{"jobs": [{"name": "x"}]}`,
		"bad-si":          `{"slope_intercept": [1], "jobs": [{"profile": "gpt2"}]}`,
		"unknown-field":   `{"bogus": 1, "jobs": [{"profile": "gpt2"}]}`,
		"bad-custom":      `{"jobs": [{"comm_mb": -1, "compute_ms": 10}]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid scenario", name)
		}
	}
}

func TestPolicyNamesAllAccepted(t *testing.T) {
	names := append(append([]string{}, CCPolicyNames()...), FluidOnlyPolicyNames()...)
	names = append(names, "centralized")
	for _, policy := range names {
		if _, err := Load(strings.NewReader(`{"policy": "` + policy + `", "jobs": [{"profile": "gpt2"}]}`)); err != nil {
			t.Errorf("%s: rejected: %v", policy, err)
		}
	}
}

func TestUnknownPolicyErrorListsSupported(t *testing.T) {
	_, err := Load(strings.NewReader(`{"policy": "bbr", "jobs": [{"profile": "gpt2"}]}`))
	if err == nil {
		t.Fatal("accepted unknown policy")
	}
	msg := err.Error()
	for _, want := range []string{"bbr", "mltcp-swift", "srpt", "centralized"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestCCResolution(t *testing.T) {
	cases := map[string]struct {
		base  string
		mltcp bool
		ok    bool
	}{
		"reno":        {"reno", false, true},
		"swift":       {"swift", false, true},
		"mltcp":       {"reno", true, true},
		"mltcp-dctcp": {"dctcp", true, true},
		"srpt":        {"", false, false},
		"centralized": {"", false, false},
	}
	for policy, want := range cases {
		s := Scenario{Policy: policy}
		base, mltcp, ok := s.CC()
		if ok != want.ok || (ok && (base != want.base || mltcp != want.mltcp)) {
			t.Errorf("%s: CC() = (%q, %v, %v), want (%q, %v, %v)",
				policy, base, mltcp, ok, want.base, want.mltcp, want.ok)
		}
		if got, want := s.Centralized(), policy == "centralized"; got != want {
			t.Errorf("%s: Centralized() = %v", policy, got)
		}
	}
	// Every mltcp-* policy carries an aggressiveness function, and no
	// other policy does.
	for _, policy := range append(CCPolicyNames(), FluidOnlyPolicyNames()...) {
		s := Scenario{Policy: policy}
		if wantAgg := strings.HasPrefix(policy, "mltcp"); (s.Agg() != nil) != wantAgg {
			t.Errorf("%s: Agg() nil-ness wrong", policy)
		}
	}
}

func TestPacketScaleValidation(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"packet_scale": 1.5, "jobs": [{"profile": "gpt2"}]}`)); err == nil {
		t.Error("accepted packet_scale > 1")
	}
	if _, err := Load(strings.NewReader(`{"packet_scale": -0.1, "jobs": [{"profile": "gpt2"}]}`)); err == nil {
		t.Error("accepted negative packet_scale")
	}
	s, err := Load(strings.NewReader(`{"packet_scale": 0.5, "jobs": [{"profile": "gpt2"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale() != 0.5 {
		t.Errorf("Scale() = %v, want 0.5", s.Scale())
	}
	if got := (Scenario{}).Scale(); got != 0.01 {
		t.Errorf("default Scale() = %v, want 0.01", got)
	}
}

func TestStaggerValidation(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"stagger_ms": -1, "jobs": [{"profile": "gpt2"}]}`)); err == nil {
		t.Error("accepted negative stagger_ms")
	}
	s, err := Load(strings.NewReader(`{"stagger_ms": 0, "jobs": [{"profile": "gpt2", "count": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Stagger() != 0 {
		t.Errorf("explicit stagger_ms 0: Stagger() = %v, want 0", s.Stagger())
	}
	if got := (Scenario{}).Stagger(); got != 10*sim.Millisecond {
		t.Errorf("default Stagger() = %v, want 10ms", got)
	}
}

func TestSpecsExpansion(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "jobs": [
	    {"name": "G", "profile": "gpt2", "count": 2, "seed": 7},
	    {"name": "X", "compute_ms": 900, "comm_mb": 625, "offset_ms": 5}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3", len(specs))
	}
	// The stagger accumulates across groups: the custom job is the third
	// spec, so its offset is its own 5ms plus two staggers.
	if want := 5*sim.Millisecond + 2*s.Stagger(); specs[2].StartOffset != want {
		t.Errorf("custom job offset = %v, want %v", specs[2].StartOffset, want)
	}
	// Seeds are distinct across every spec.
	seen := map[uint64]string{}
	for _, spec := range specs {
		if prev, dup := seen[spec.Seed]; dup {
			t.Errorf("specs %s and %s share seed %d", prev, spec.Name, spec.Seed)
		}
		seen[spec.Seed] = spec.Name
	}
	if specs[2].Profile.ComputeTime != 900*sim.Millisecond ||
		specs[2].Profile.CommBytes != units.ByteCount(625*1e6) {
		t.Errorf("custom profile: %+v", specs[2].Profile)
	}
}
