package config

import (
	"fmt"
	"strconv"
	"strings"

	"mltcp/internal/netsim"
	"mltcp/internal/units"
)

// Topology kind names — the registry every kind dispatch and validation
// error draws from.
const (
	KindFatTree   = "fattree"
	KindLeafSpine = "leafspine"
)

// MaxFatTreeK is the largest fat-tree arity a scenario may ask for:
// k=128 is 8,192 racks and 524,288 hosts, far beyond what the simulators
// can run, and it keeps every k-derived count well inside int.
const MaxFatTreeK = 128

// A leaf-spine may be no larger than the k=MaxFatTreeK fat-tree: at most
// its k³/4 = 524,288 hosts and its k³/2 = 1,048,576 switch-to-switch
// cables (leaves × spines).
const (
	maxLeafSpineHosts       = MaxFatTreeK * MaxFatTreeK * MaxFatTreeK / 4
	maxLeafSpineSwitchLinks = MaxFatTreeK * MaxFatTreeK * MaxFatTreeK / 2
)

// TopologyKinds returns the accepted topology kinds in a stable order
// (for error messages and usage strings).
func TopologyKinds() []string { return []string{KindFatTree, KindLeafSpine} }

// Topology describes a cluster fabric for a scenario. Without one, a
// scenario runs on the classic single-bottleneck (dumbbell) model; with
// one, jobs are placed onto racks, routed over ECMP-selected paths, and
// allocated by the weighted max-min fluid model.
type Topology struct {
	// Kind selects the fabric family: "fattree" or "leafspine".
	Kind string `json:"kind"`
	// K is the fat-tree arity (even, 4..MaxFatTreeK): k pods, k²/2 racks, k³/4
	// hosts. fattree only.
	K int `json:"k,omitempty"`
	// Leaves, Spines, and HostsPerLeaf size a leaf-spine fabric.
	// leafspine only.
	Leaves       int `json:"leaves,omitempty"`
	Spines       int `json:"spines,omitempty"`
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`
	// LinkGbps is the switch-to-switch link rate (default: the
	// scenario's CapacityGbps).
	LinkGbps float64 `json:"link_gbps,omitempty"`
	// HostGbps is the host uplink rate (default: LinkGbps).
	HostGbps float64 `json:"host_gbps,omitempty"`
}

// validate checks the topology description in isolation.
func (t *Topology) validate() error {
	switch t.Kind {
	case KindFatTree:
		if t.K < 4 || t.K > MaxFatTreeK || t.K%2 != 0 {
			return fmt.Errorf("config: fat-tree k %d must be even and in [4, %d]", t.K, MaxFatTreeK)
		}
		if t.Leaves != 0 || t.Spines != 0 || t.HostsPerLeaf != 0 {
			return fmt.Errorf("config: fattree topology takes k, not leaves/spines/hosts_per_leaf")
		}
	case KindLeafSpine:
		for _, d := range []struct {
			field    string
			val, max int
		}{
			{"leaves", t.Leaves, maxLeafSpineHosts},
			{"spines", t.Spines, maxLeafSpineSwitchLinks},
			{"hosts_per_leaf", t.HostsPerLeaf, maxLeafSpineHosts},
		} {
			if d.val < 1 || d.val > d.max {
				return fmt.Errorf("config: leafspine %s %d must be in [1, %d]", d.field, d.val, d.max)
			}
		}
		// Each factor is at least 1, so dividing cannot overflow.
		if t.HostsPerLeaf > maxLeafSpineHosts/t.Leaves {
			return fmt.Errorf("config: leafspine hosts_per_leaf %d on %d leaves exceeds %d hosts (the k=%d fat-tree's)",
				t.HostsPerLeaf, t.Leaves, maxLeafSpineHosts, MaxFatTreeK)
		}
		if t.Spines > maxLeafSpineSwitchLinks/t.Leaves {
			return fmt.Errorf("config: leafspine spines %d on %d leaves exceeds %d switch links (the k=%d fat-tree's)",
				t.Spines, t.Leaves, maxLeafSpineSwitchLinks, MaxFatTreeK)
		}
		if t.K != 0 {
			return fmt.Errorf("config: leafspine topology takes leaves/spines/hosts_per_leaf, not k")
		}
		if t.Leaves == 1 && t.HostsPerLeaf == 1 {
			return fmt.Errorf("config: leafspine topology needs at least two hosts")
		}
	default:
		return fmt.Errorf("config: unknown topology kind %q (valid: %s)",
			t.Kind, strings.Join(TopologyKinds(), ", "))
	}
	if t.LinkGbps < 0 || t.HostGbps < 0 {
		return fmt.Errorf("config: negative topology link rate")
	}
	return nil
}

// Racks returns the number of racks the topology exposes for placement.
func (t *Topology) Racks() int {
	if t.Kind == KindFatTree {
		return t.K * t.K / 2
	}
	return t.Leaves
}

// hostsPerRack returns the number of hosts attached to each rack.
func (t *Topology) hostsPerRack() int {
	if t.Kind == KindFatTree {
		return t.K / 2
	}
	return t.HostsPerLeaf
}

// RackName returns rack i's placement name, "rack" followed by i in
// decimal: the name jobs reference and results report.
func RackName(i int) string { return "rack" + strconv.Itoa(i) }

// RackNames returns the placement names jobs may reference, "rack0"
// through "rack{N-1}" — the registry topology-placement validation errors
// list.
func (t *Topology) RackNames() []string {
	names := make([]string, t.Racks())
	for i := range names {
		names[i] = RackName(i)
	}
	return names
}

// rackList renders the valid placement names for an error message. A
// large registry (a big fat-tree, or a leaf-spine with many leaves) is
// elided to its ends, so the message stays short.
func (t *Topology) rackList() string {
	n := t.Racks()
	if n <= 8 {
		return strings.Join(t.RackNames(), ", ")
	}
	return "rack0, rack1, ..., " + RackName(n-1)
}

// rackIndex resolves a placement name against the registry.
func (t *Topology) rackIndex(name string) (int, bool) {
	// Hand-rolled "rack%d" parse: this runs per job on the placement hot
	// path, where fmt.Sscanf costs more than the rest of Placements. Only
	// canonical spellings round-trip: digits only, no leading zeros.
	const prefix = "rack"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	digits := name[len(prefix):]
	if len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	i := 0
	for k := 0; k < len(digits); k++ {
		c := digits[k]
		if c < '0' || c > '9' || i > t.Racks() {
			return 0, false
		}
		i = i*10 + int(c-'0')
	}
	if i >= t.Racks() {
		return 0, false
	}
	return i, true
}

// Build constructs the fabric graph. capacity is the scenario bottleneck
// rate, the default for both link tiers.
func (t *Topology) Build(capacity units.Rate) *netsim.Fabric {
	linkRate := capacity
	if t.LinkGbps > 0 {
		linkRate = units.Rate(t.LinkGbps) * units.Gbps
	}
	hostRate := linkRate
	if t.HostGbps > 0 {
		hostRate = units.Rate(t.HostGbps) * units.Gbps
	}
	if t.Kind == KindFatTree {
		return netsim.NewFatTree(t.K, hostRate, linkRate)
	}
	return netsim.NewLeafSpine(t.Leaves, t.Spines, t.HostsPerLeaf, hostRate, linkRate)
}

// Label returns the topology's display name ("fattree-8",
// "leafspine-6x3x4").
func (t *Topology) Label() string {
	if t.Kind == KindFatTree {
		return fmt.Sprintf("fattree-%d", t.K)
	}
	return fmt.Sprintf("leafspine-%dx%dx%d", t.Leaves, t.Spines, t.HostsPerLeaf)
}

// Placement is one expanded job's rack assignment, aligned index-by-index
// with Scenario.Specs().
type Placement struct {
	// SrcRack and DstRack are rack indices into the topology.
	SrcRack, DstRack int
}

// Placements expands the scenario's job list into rack placements, one
// per Specs() entry. Jobs with explicit src_rack/dst_rack keep them
// (replicas repeat the pair); unplaced jobs are spread deterministically:
// source racks round-robin, destinations half a fabric away, so
// auto-placed cluster scenarios exercise shared and disjoint bottlenecks
// without hand-written placement. Returns nil without a topology.
func (s Scenario) Placements() []Placement {
	if s.Topology == nil {
		return nil
	}
	racks := s.Topology.Racks()
	var out []Placement
	for _, j := range s.Jobs {
		count := j.Count
		if count == 0 {
			count = 1
		}
		for c := 0; c < count; c++ {
			i := len(out)
			var p Placement
			if j.SrcRack != "" {
				p.SrcRack, _ = s.Topology.rackIndex(j.SrcRack)
				p.DstRack, _ = s.Topology.rackIndex(j.DstRack)
			} else {
				p.SrcRack = i % racks
				p.DstRack = (i + racks/2) % racks
				if p.DstRack == p.SrcRack && racks > 1 {
					p.DstRack = (p.SrcRack + 1) % racks
				}
			}
			out = append(out, p)
		}
	}
	return out
}
