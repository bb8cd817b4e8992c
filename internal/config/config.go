// Package config loads experiment scenarios from JSON, so cluster
// configurations can be versioned and replayed with cmd/mltcpsim -config
// instead of being encoded in flags. A Scenario is fidelity-agnostic: the
// same description runs on the fluid simulator or the packet-level TCP
// stack through internal/backend.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Scenario is one complete experiment description.
type Scenario struct {
	// Name labels the scenario in output.
	Name string `json:"name"`
	// CapacityGbps is the bottleneck rate (default 50).
	CapacityGbps float64 `json:"capacity_gbps"`
	// Policy is the scheduling scheme. Congestion-control policies (reno,
	// cubic, dctcp, d2tcp, swift, and their mltcp-wrapped variants mltcp,
	// mltcp-cubic, mltcp-dctcp, mltcp-d2tcp, mltcp-swift) run at either
	// fidelity; srpt, pdq, las, and pias are fluid-only in-network
	// disciplines; centralized applies the Cassini-style offset optimizer
	// at either fidelity. Default mltcp.
	Policy string `json:"policy"`
	// DurationSec is the simulated horizon (default 120).
	DurationSec float64 `json:"duration_sec"`
	// SlopeIntercept optionally overrides Equation 2's parameters for
	// mltcp policies ([slope, intercept]).
	SlopeIntercept []float64 `json:"slope_intercept,omitempty"`
	// StaggerMS is the automatic start-time stagger between successive
	// jobs, on top of each job's OffsetMS (nil = default 10ms; 0 disables).
	StaggerMS *float64 `json:"stagger_ms,omitempty"`
	// PacketScale shrinks the packet-level rendering of the scenario:
	// the bottleneck runs at CapacityGbps×PacketScale and byte volumes are
	// scaled likewise, preserving every iteration time while keeping packet
	// counts tractable (default 0.01, the paper-testbed 1/100 scale). The
	// fluid backend ignores it.
	PacketScale float64 `json:"packet_scale,omitempty"`
	// Topology optionally replaces the single bottleneck with a cluster
	// fabric (fat-tree or leaf-spine); jobs are then placed on racks and
	// rates come from the weighted max-min allocator. Fluid backend only.
	Topology *Topology `json:"topology,omitempty"`
	// Jobs lists the workload.
	Jobs []Job `json:"jobs"`
}

// Job describes one job (or a replicated group).
type Job struct {
	// Name labels the job; replicas get -1, -2... suffixes.
	Name string `json:"name"`
	// Profile names a built-in profile (gpt3, gpt2, ...). Leave empty
	// to use ComputeMS/CommMB.
	Profile string `json:"profile,omitempty"`
	// ComputeMS and CommMB define a custom profile.
	ComputeMS float64 `json:"compute_ms,omitempty"`
	CommMB    float64 `json:"comm_mb,omitempty"`
	// OffsetMS delays the first communication phase.
	OffsetMS float64 `json:"offset_ms,omitempty"`
	// NoiseMS is the compute-time noise std.
	NoiseMS float64 `json:"noise_ms,omitempty"`
	// Count replicates the job (default 1); replicas are staggered by
	// StaggerMS each beyond OffsetMS.
	Count int `json:"count,omitempty"`
	// Seed drives the job's noise stream (replicas add their index).
	Seed uint64 `json:"seed,omitempty"`
	// SrcRack and DstRack place the job's flow on the scenario topology
	// ("rack0", "rack1", ...). Set both or neither; unplaced jobs are
	// spread deterministically. Requires Topology.
	SrcRack string `json:"src_rack,omitempty"`
	DstRack string `json:"dst_rack,omitempty"`
	// Iters caps the job at that many training iterations, after which it
	// departs the fabric (0 = run for the whole horizon). This is what
	// lets trace-driven cluster scenarios model job completion.
	Iters int `json:"iters,omitempty"`
}

// ccPolicies maps every congestion-control policy name to its base
// algorithm and whether the MLTCP wrapper applies. These are the policies
// both backends understand.
var ccPolicies = map[string]struct {
	Base  string
	MLTCP bool
}{
	"reno":        {"reno", false},
	"cubic":       {"cubic", false},
	"dctcp":       {"dctcp", false},
	"d2tcp":       {"d2tcp", false},
	"swift":       {"swift", false},
	"mltcp":       {"reno", true},
	"mltcp-reno":  {"reno", true},
	"mltcp-cubic": {"cubic", true},
	"mltcp-dctcp": {"dctcp", true},
	"mltcp-d2tcp": {"d2tcp", true},
	"mltcp-swift": {"swift", true},
}

// fluidOnlyPolicies are in-network scheduling disciplines the packet
// backend does not implement.
var fluidOnlyPolicies = map[string]bool{
	"srpt": true, "pdq": true, "las": true, "pias": true,
}

// CCPolicyNames returns the congestion-control policy names both backends
// accept, in a stable order (for error messages and usage strings).
func CCPolicyNames() []string {
	return []string{"reno", "cubic", "dctcp", "d2tcp", "swift",
		"mltcp", "mltcp-reno", "mltcp-cubic", "mltcp-dctcp", "mltcp-d2tcp", "mltcp-swift"}
}

// FluidOnlyPolicyNames returns the fluid-only scheduling policies.
func FluidOnlyPolicyNames() []string { return []string{"srpt", "pdq", "las", "pias"} }

// PolicyNames returns every accepted policy name — congestion-control
// schemes, fluid-only disciplines, and "centralized" — in a stable order.
func PolicyNames() []string {
	return append(append(CCPolicyNames(), FluidOnlyPolicyNames()...), "centralized")
}

// Load parses and validates a scenario.
func Load(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("config: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Normalize validates the scenario and fills defaulted fields in place.
// Scenarios constructed in code (rather than via Load) must be normalized
// before use; backends call it on their private copy.
func (s *Scenario) Normalize() error {
	if err := s.validate(); err != nil {
		return err
	}
	s.applyDefaults()
	return nil
}

func (s *Scenario) applyDefaults() {
	if s.CapacityGbps == 0 {
		s.CapacityGbps = 50
	}
	if s.Policy == "" {
		s.Policy = "mltcp"
	}
	if s.DurationSec == 0 {
		s.DurationSec = 120
	}
	if s.PacketScale == 0 {
		s.PacketScale = 0.01
	}
}

func (s *Scenario) validate() error {
	if len(s.Jobs) == 0 {
		return fmt.Errorf("config: scenario %q has no jobs", s.Name)
	}
	if s.CapacityGbps < 0 || s.DurationSec < 0 {
		return fmt.Errorf("config: negative capacity or duration")
	}
	if _, cc := ccPolicies[s.Policy]; !cc && !fluidOnlyPolicies[s.Policy] &&
		s.Policy != "" && s.Policy != "centralized" {
		return fmt.Errorf("config: unknown policy %q (valid: %s)",
			s.Policy, strings.Join(PolicyNames(), ", "))
	}
	if s.SlopeIntercept != nil && len(s.SlopeIntercept) != 2 {
		return fmt.Errorf("config: slope_intercept needs exactly [slope, intercept]")
	}
	if s.StaggerMS != nil && *s.StaggerMS < 0 {
		return fmt.Errorf("config: negative stagger_ms")
	}
	if s.PacketScale < 0 || s.PacketScale > 1 {
		return fmt.Errorf("config: packet_scale %v outside (0, 1]", s.PacketScale)
	}
	if s.Topology != nil {
		if err := s.Topology.validate(); err != nil {
			return err
		}
		if fluidOnlyPolicies[s.Policy] {
			return fmt.Errorf("config: policy %q cannot run on a topology (valid: %s, centralized)",
				s.Policy, strings.Join(CCPolicyNames(), ", "))
		}
	}
	known := workload.Profiles()
	for i, j := range s.Jobs {
		custom := j.ComputeMS > 0 || j.CommMB > 0
		if j.Profile == "" && !custom {
			return fmt.Errorf("config: job %d needs a profile or compute_ms+comm_mb", i)
		}
		if j.Profile != "" {
			if custom {
				return fmt.Errorf("config: job %d sets both profile and custom fields", i)
			}
			if _, ok := known[j.Profile]; !ok {
				return fmt.Errorf("config: job %d: unknown profile %q", i, j.Profile)
			}
		} else if j.ComputeMS < 0 || j.CommMB <= 0 {
			return fmt.Errorf("config: job %d: custom profile needs compute_ms >= 0 and comm_mb > 0", i)
		}
		if j.Count < 0 {
			return fmt.Errorf("config: job %d: negative count", i)
		}
		if j.Iters < 0 {
			return fmt.Errorf("config: job %d: negative iters", i)
		}
		if (j.SrcRack == "") != (j.DstRack == "") {
			return fmt.Errorf("config: job %d: src_rack and dst_rack must be set together", i)
		}
		if j.SrcRack != "" {
			if s.Topology == nil {
				return fmt.Errorf("config: job %d places racks but the scenario has no topology", i)
			}
			for _, r := range []string{j.SrcRack, j.DstRack} {
				if _, ok := s.Topology.rackIndex(r); !ok {
					return fmt.Errorf("config: job %d: unknown rack %q (valid: %s)",
						i, r, s.Topology.rackList())
				}
			}
			if j.SrcRack == j.DstRack && s.Topology.hostsPerRack() < 2 {
				return fmt.Errorf("config: job %d: same-rack placement %q needs at least two hosts per rack",
					i, j.SrcRack)
			}
		}
	}
	return nil
}

// Capacity returns the bottleneck rate.
func (s Scenario) Capacity() units.Rate { return units.Rate(s.CapacityGbps) * units.Gbps }

// Duration returns the simulated horizon.
func (s Scenario) Duration() sim.Time { return sim.FromSeconds(s.DurationSec) }

// Stagger returns the automatic inter-job start stagger.
func (s Scenario) Stagger() sim.Time {
	if s.StaggerMS == nil {
		return 10 * sim.Millisecond
	}
	return sim.FromSeconds(*s.StaggerMS / 1000)
}

// Scale returns the packet-level scale factor (1/100 by default).
func (s Scenario) Scale() float64 {
	if s.PacketScale == 0 {
		return 0.01
	}
	return s.PacketScale
}

// CC resolves the scenario's policy as a congestion-control choice:
// the base algorithm name (reno, cubic, dctcp, d2tcp, swift) and whether
// the MLTCP wrapper applies. ok is false for non-CC policies (srpt, pdq,
// las, pias, centralized).
func (s Scenario) CC() (base string, mltcp, ok bool) {
	p, ok := ccPolicies[s.Policy]
	return p.Base, p.MLTCP, ok
}

// Centralized reports whether the scenario uses the offline offset
// optimizer instead of a distributed scheme.
func (s Scenario) Centralized() bool { return s.Policy == "centralized" }

// Agg returns the aggressiveness function for mltcp policies (nil for
// others).
func (s Scenario) Agg() *core.AggFunc {
	if p, ok := ccPolicies[s.Policy]; !ok || !p.MLTCP {
		return nil
	}
	f := core.Default()
	if s.SlopeIntercept != nil {
		f = core.Linear(s.SlopeIntercept[0], s.SlopeIntercept[1])
	}
	return &f
}

// Specs expands the scenario's job list into backend-neutral workload
// specs: replica groups are unrolled, offsets accumulate the automatic
// stagger, and every spec gets a distinct seed. Both backends compile
// their jobs from this one expansion, so fidelities agree on the workload
// by construction.
func (s Scenario) Specs() []workload.Spec {
	stagger := s.Stagger()
	var specs []workload.Spec
	for ji, j := range s.Jobs {
		count := j.Count
		if count == 0 {
			count = 1
		}
		prof, ok := workload.ProfileByName(j.Profile)
		if !ok {
			prof = workload.Profile{
				Name:        j.Name,
				ComputeTime: sim.FromSeconds(j.ComputeMS / 1000),
				CommBytes:   units.ByteCount(j.CommMB * 1e6),
			}
		}
		for c := 0; c < count; c++ {
			name := j.Name
			if name == "" {
				name = prof.Name
			}
			if count > 1 {
				name = fmt.Sprintf("%s-%d", name, c+1)
			}
			specs = append(specs, workload.Spec{
				Name:          name,
				Profile:       prof,
				StartOffset:   sim.FromSeconds(j.OffsetMS/1000) + sim.Time(len(specs))*stagger,
				NoiseStd:      sim.FromSeconds(j.NoiseMS / 1000),
				Seed:          j.Seed + uint64(ji*100+c),
				MaxIterations: j.Iters,
			})
		}
	}
	return specs
}
