package config

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mltcp/internal/units"
)

const clusterScenario = `{
  "name": "cluster",
  "policy": "mltcp",
  "topology": {"kind": "fattree", "k": 4},
  "jobs": [
    {"name": "A", "profile": "gpt3", "src_rack": "rack0", "dst_rack": "rack7", "iters": 40},
    {"name": "B", "profile": "gpt2", "count": 3}
  ]
}`

// TestTopologyRejects covers every malformed-topology branch; each case
// also asserts the error names what it should (in particular that
// registry-backed branches list the valid names).
func TestTopologyRejects(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		mention []string
	}{
		{
			"unknown-kind",
			`{"topology": {"kind": "torus", "k": 4}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"torus", "fattree", "leafspine"},
		},
		{
			"odd-k",
			`{"topology": {"kind": "fattree", "k": 5}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"even", "[4, 128]"},
		},
		{
			"small-k",
			`{"topology": {"kind": "fattree", "k": 2}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"even", "[4, 128]"},
		},
		{
			"huge-k",
			`{"topology": {"kind": "fattree", "k": 130}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"even", "[4, 128]"},
		},
		{
			// k*k/2 overflows int: rejected before anything counts racks.
			"overflowing-k",
			`{"topology": {"kind": "fattree", "k": 3037000500}, "jobs": [{"profile": "gpt2", "src_rack": "x", "dst_rack": "x"}]}`,
			[]string{"3037000500", "[4, 128]"},
		},
		{
			"fattree-with-leaves",
			`{"topology": {"kind": "fattree", "k": 4, "leaves": 3}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"fattree", "leaves"},
		},
		{
			"leafspine-missing-dims",
			`{"topology": {"kind": "leafspine", "leaves": 4}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"leafspine", "spines"},
		},
		{
			// Each dimension alone is bounded by the k=128 fat-tree's
			// hosts or switch links, before any product is formed.
			"leafspine-huge-everything",
			`{"topology": {"kind": "leafspine", "leaves": 4000000, "spines": 4000000, "hosts_per_leaf": 4000000}, "jobs": [{"profile": "gpt2", "src_rack": "x", "dst_rack": "x"}]}`,
			[]string{"leaves", "4000000", "[1, 524288]"},
		},
		{
			"leafspine-huge-spines",
			`{"topology": {"kind": "leafspine", "leaves": 2, "spines": 1048577, "hosts_per_leaf": 2}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"spines", "1048577", "[1, 1048576]"},
		},
		{
			"leafspine-huge-hosts-per-leaf",
			`{"topology": {"kind": "leafspine", "leaves": 2, "spines": 2, "hosts_per_leaf": 524289}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"hosts_per_leaf", "524289", "[1, 524288]"},
		},
		{
			// 1024 × 1024 hosts: each factor in range, the product not.
			"leafspine-too-many-hosts",
			`{"topology": {"kind": "leafspine", "leaves": 1024, "spines": 2, "hosts_per_leaf": 1024}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"hosts_per_leaf", "1024 leaves", "524288 hosts"},
		},
		{
			"leafspine-too-many-switch-links",
			`{"topology": {"kind": "leafspine", "leaves": 2048, "spines": 1024, "hosts_per_leaf": 1}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"spines", "2048 leaves", "1048576 switch links"},
		},
		{
			"leafspine-zero-hosts-per-leaf",
			`{"topology": {"kind": "leafspine", "leaves": 4, "spines": 2, "hosts_per_leaf": 0}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"hosts_per_leaf", "[1, 524288]"},
		},
		{
			"leafspine-with-k",
			`{"topology": {"kind": "leafspine", "leaves": 4, "spines": 2, "hosts_per_leaf": 2, "k": 4}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"leafspine", "not k"},
		},
		{
			"leafspine-single-host",
			`{"topology": {"kind": "leafspine", "leaves": 1, "spines": 1, "hosts_per_leaf": 1}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"two hosts"},
		},
		{
			"negative-link-rate",
			`{"topology": {"kind": "fattree", "k": 4, "link_gbps": -1}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"negative"},
		},
		{
			"fluid-only-policy-on-topology",
			`{"policy": "srpt", "topology": {"kind": "fattree", "k": 4}, "jobs": [{"profile": "gpt2"}]}`,
			[]string{"srpt", "mltcp-swift", "centralized"},
		},
		{
			"unknown-rack",
			`{"topology": {"kind": "fattree", "k": 4}, "jobs": [{"profile": "gpt2", "src_rack": "rack99", "dst_rack": "rack0"}]}`,
			[]string{"rack99", "rack0", "rack7"},
		},
		{
			"malformed-rack-name",
			`{"topology": {"kind": "fattree", "k": 4}, "jobs": [{"profile": "gpt2", "src_rack": "tor3", "dst_rack": "rack0"}]}`,
			[]string{"tor3", "rack0", "rack7"},
		},
		{
			"src-without-dst",
			`{"topology": {"kind": "fattree", "k": 4}, "jobs": [{"profile": "gpt2", "src_rack": "rack0"}]}`,
			[]string{"together"},
		},
		{
			"placement-without-topology",
			`{"jobs": [{"profile": "gpt2", "src_rack": "rack0", "dst_rack": "rack1"}]}`,
			[]string{"no topology"},
		},
		{
			"same-rack-single-host",
			`{"topology": {"kind": "leafspine", "leaves": 4, "spines": 2, "hosts_per_leaf": 1}, "jobs": [{"profile": "gpt2", "src_rack": "rack1", "dst_rack": "rack1"}]}`,
			[]string{"two hosts per rack"},
		},
		{
			"negative-iters",
			`{"jobs": [{"profile": "gpt2", "iters": -3}]}`,
			[]string{"iters"},
		},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted invalid scenario", c.name)
			continue
		}
		for _, want := range c.mention {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, want)
			}
		}
	}
}

func TestTopologyRegistries(t *testing.T) {
	if got := TopologyKinds(); !reflect.DeepEqual(got, []string{"fattree", "leafspine"}) {
		t.Errorf("TopologyKinds() = %v", got)
	}
	ft := &Topology{Kind: KindFatTree, K: 4}
	if got := ft.Racks(); got != 8 {
		t.Errorf("fattree-4 racks = %d, want 8", got)
	}
	names := ft.RackNames()
	if len(names) != 8 || names[0] != "rack0" || names[7] != "rack7" {
		t.Errorf("RackNames() = %v", names)
	}
	// Error messages list a small registry whole and elide a large one.
	if got := ft.rackList(); got != "rack0, rack1, rack2, rack3, rack4, rack5, rack6, rack7" {
		t.Errorf("fattree-4 rackList() = %q", got)
	}
	if got := (&Topology{Kind: KindFatTree, K: 8}).rackList(); got != "rack0, rack1, ..., rack31" {
		t.Errorf("fattree-8 rackList() = %q", got)
	}
	ls := &Topology{Kind: KindLeafSpine, Leaves: 6, Spines: 3, HostsPerLeaf: 4}
	if got := ls.Racks(); got != 6 {
		t.Errorf("leafspine racks = %d, want 6", got)
	}
	if ft.Label() != "fattree-4" || ls.Label() != "leafspine-6x3x4" {
		t.Errorf("labels: %s, %s", ft.Label(), ls.Label())
	}
	// rackIndex is strict: no prefixes, suffixes, or out-of-range indices.
	for name, ok := range map[string]bool{
		"rack0": true, "rack7": true, "rack8": false, "rack-1": false,
		"rack07": false, "rack0x": false, "r0": false, "": false,
	} {
		if _, got := ft.rackIndex(name); got != ok {
			t.Errorf("rackIndex(%q) ok = %v, want %v", name, got, ok)
		}
	}
}

func TestTopologyBuild(t *testing.T) {
	s, err := Load(strings.NewReader(clusterScenario))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Topology.Build(s.Capacity())
	if f.Kind != "fattree-4" {
		t.Errorf("fabric kind = %s", f.Kind)
	}
	if got := len(f.Hosts()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	// Default rates come from the scenario capacity.
	if got := f.Links()[0].Capacity; got != 50*units.Gbps {
		t.Errorf("default link rate = %v, want 50 Gbps", got)
	}
	// Explicit overrides take precedence, host tier defaulting to link tier.
	ov := &Topology{Kind: KindLeafSpine, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 200, HostGbps: 100}
	fo := ov.Build(s.Capacity())
	if got := fo.Oversubscription(); got != 0.5 { //lint:allow simunits 2×100/(2×200) is exact in binary floating point
		t.Errorf("oversubscription = %v, want 0.5", got)
	}
}

func TestTopologyFluidPolicy(t *testing.T) {
	s, err := Load(strings.NewReader(clusterScenario))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FluidPolicy().Name(); got != "maxmin" {
		t.Errorf("topology FluidPolicy = %s, want maxmin", got)
	}
	if s.Agg() == nil {
		t.Error("mltcp on a topology lost its aggressiveness function")
	}
	// Without a topology the policy mapping is untouched.
	s.Topology = nil
	if got := s.FluidPolicy().Name(); got != "weighted-share" {
		t.Errorf("dumbbell FluidPolicy = %s, want weighted-share", got)
	}
}

func TestPlacements(t *testing.T) {
	s, err := Load(strings.NewReader(clusterScenario))
	if err != nil {
		t.Fatal(err)
	}
	specs := s.Specs()
	got := s.Placements()
	if len(got) != len(specs) {
		t.Fatalf("%d placements for %d specs", len(got), len(specs))
	}
	// Explicit placement honored; replicas spread round-robin with the
	// destination half a fabric away.
	if got[0] != (Placement{SrcRack: 0, DstRack: 7}) {
		t.Errorf("explicit placement = %+v", got[0])
	}
	for i := 1; i < 4; i++ {
		want := Placement{SrcRack: i % 8, DstRack: (i + 4) % 8}
		if got[i] != want {
			t.Errorf("auto placement %d = %+v, want %+v", i, got[i], want)
		}
	}
	// Placements is a pure function of the scenario.
	if again := s.Placements(); !reflect.DeepEqual(got, again) {
		t.Error("Placements() not deterministic")
	}
	// Iters threads through to the spec.
	if specs[0].MaxIterations != 40 {
		t.Errorf("spec MaxIterations = %d, want 40", specs[0].MaxIterations)
	}
	if specs[1].MaxIterations != 0 {
		t.Errorf("uncapped spec MaxIterations = %d, want 0", specs[1].MaxIterations)
	}
	// No topology: no placements.
	if p := (Scenario{Jobs: s.Jobs}).Placements(); p != nil {
		t.Errorf("dumbbell Placements() = %v, want nil", p)
	}
}

// TestRackNameRoundTrips checks that RackName spells "rack%d" and that
// the placement parser reads every name back as its rack.
func TestRackNameRoundTrips(t *testing.T) {
	top := &Topology{Kind: KindLeafSpine, Leaves: 300}
	for i := range top.Racks() {
		name := RackName(i)
		if want := fmt.Sprintf("rack%d", i); name != want {
			t.Fatalf("RackName(%d) = %q, want %q", i, name, want)
		}
		if got, ok := top.rackIndex(name); !ok || got != i {
			t.Fatalf("rackIndex(%q) = %d, %v; want %d, true", name, got, ok, i)
		}
	}
}
