package netsim

import (
	"reflect"
	"testing"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// linkName is link id's display name, its end nodes' names joined by
// "->".
func linkName(f *Fabric, id int) string {
	l := f.Links()[id]
	return f.Nodes()[l.From].Name + "->" + f.Nodes()[l.To].Name
}

// checkPath asserts the link IDs form a connected directed chain from src
// to dst and returns its length.
func checkPath(t *testing.T, f *Fabric, src, dst int, path []int) int {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("empty path %d->%d", src, dst)
	}
	at := src
	for _, id := range path {
		l := f.Links()[id]
		if l.From != at {
			t.Fatalf("path %d->%d: link %s starts at %s, expected %s",
				src, dst, linkName(f, id), f.Nodes()[l.From].Name, f.Nodes()[at].Name)
		}
		if l.Capacity <= 0 {
			t.Fatalf("link %s has capacity %v", linkName(f, id), l.Capacity)
		}
		at = l.To
	}
	if at != dst {
		t.Fatalf("path %d->%d ends at %s", src, dst, f.Nodes()[at].Name)
	}
	return len(path)
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		f := NewFatTree(k, 50*units.Gbps, 50*units.Gbps)
		half := k / 2
		wantHosts := k * k * k / 4
		if got := f.CountByRole(RoleHost); got != wantHosts {
			t.Errorf("k=%d: hosts = %d, want %d", k, got, wantHosts)
		}
		if got := f.CountByRole(RoleEdge); got != k*half {
			t.Errorf("k=%d: edge switches = %d, want %d", k, got, k*half)
		}
		if got := f.CountByRole(RoleAgg); got != k*half {
			t.Errorf("k=%d: agg switches = %d, want %d", k, got, k*half)
		}
		if got := f.CountByRole(RoleCore); got != half*half {
			t.Errorf("k=%d: core switches = %d, want %d", k, got, half*half)
		}
		if got, want := len(f.Nodes()), wantHosts+2*k*half+half*half; got != want {
			t.Errorf("k=%d: nodes = %d, want %d", k, got, want)
		}
		// Directed links: host<->edge, edge<->agg, agg<->core cables, two
		// directions each. Cable counts are k³/4 at each tier.
		if got, want := len(f.Links()), 3*k*k*k/2; got != want {
			t.Errorf("k=%d: directed links = %d, want %d", k, got, want)
		}
		if got := f.Racks(); got != k*half {
			t.Errorf("k=%d: racks = %d, want %d", k, got, k*half)
		}
		for r := 0; r < f.Racks(); r++ {
			if got := len(f.RackHosts(r)); got != half {
				t.Errorf("k=%d: rack %d has %d hosts, want %d", k, r, got, half)
			}
		}
		// Full bisection with equal rates: half the hosts' bandwidth.
		wantBisect := units.Rate(float64(wantHosts/2) * float64(50*units.Gbps))
		if got := f.BisectionBandwidth(); got != wantBisect {
			t.Errorf("k=%d: bisection = %v, want %v", k, got, wantBisect)
		}
		if got := f.Oversubscription(); got != 1 {
			t.Errorf("k=%d: oversubscription = %v, want 1", k, got)
		}
	}
}

func TestFatTreePathBounds(t *testing.T) {
	const k = 4
	f := NewFatTree(k, 50*units.Gbps, 50*units.Gbps)
	hosts := f.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			s, d := f.Nodes()[src], f.Nodes()[dst]
			wantLen := 6 // across pods: up, 2 up the tree, 2 down, down
			wantWidth := (k / 2) * (k / 2)
			switch {
			case s.Rack == d.Rack:
				wantLen, wantWidth = 2, 1
			case s.Pod == d.Pod:
				wantLen, wantWidth = 4, k/2
			}
			if got := f.ECMPWidth(src, dst); got != wantWidth {
				t.Fatalf("%s->%s: ECMP width %d, want %d", s.Name, d.Name, got, wantWidth)
			}
			// Every equal-cost choice yields a valid path of the bound
			// length, and distinct choices modulo the width coincide.
			for c := 0; c < wantWidth; c++ {
				p := f.Path(src, dst, uint64(c))
				if got := checkPath(t, f, src, dst, p); got != wantLen {
					t.Fatalf("%s->%s choice %d: path length %d, want %d", s.Name, d.Name, c, got, wantLen)
				}
				if wrapped := f.Path(src, dst, uint64(c+wantWidth)); !reflect.DeepEqual(p, wrapped) {
					t.Fatalf("%s->%s: choice %d and %d disagree", s.Name, d.Name, c, c+wantWidth)
				}
			}
		}
	}
}

func TestFatTreeECMPChoicesDistinct(t *testing.T) {
	f := NewFatTree(4, 50*units.Gbps, 50*units.Gbps)
	// Hosts in different pods: the 4 equal-cost choices must be 4
	// distinct paths (each picks a different core switch).
	src, dst := f.Hosts()[0], f.Hosts()[len(f.Hosts())-1]
	seen := map[string]bool{}
	for c := 0; c < f.ECMPWidth(src, dst); c++ {
		p := f.Path(src, dst, uint64(c))
		key := ""
		for _, id := range p {
			key += linkName(f, id) + "|"
		}
		if seen[key] {
			t.Fatalf("choice %d repeats path %s", c, key)
		}
		seen[key] = true
	}
}

func TestLeafSpineStructure(t *testing.T) {
	const leaves, spines, hostsPer = 6, 3, 4
	f := NewLeafSpine(leaves, spines, hostsPer, 100*units.Gbps, 200*units.Gbps)
	if got := f.CountByRole(RoleHost); got != leaves*hostsPer {
		t.Errorf("hosts = %d, want %d", got, leaves*hostsPer)
	}
	if got := f.CountByRole(RoleEdge); got != leaves {
		t.Errorf("leaves = %d, want %d", got, leaves)
	}
	if got := f.CountByRole(RoleCore); got != spines {
		t.Errorf("spines = %d, want %d", got, spines)
	}
	if got, want := len(f.Links()), 2*(leaves*hostsPer+leaves*spines); got != want {
		t.Errorf("directed links = %d, want %d", got, want)
	}
	// Oversubscription: 4×100 / (3×200) = 2/3.
	if got, want := f.Oversubscription(), 4.0*100/(3*200); got != want { //lint:allow simunits ratio of exact integer-valued rates; both sides compute the same expression
		t.Errorf("oversubscription = %v, want %v", got, want)
	}
	wantBisect := units.Rate(float64(leaves/2*spines) * float64(200*units.Gbps))
	if got := f.BisectionBandwidth(); got != wantBisect {
		t.Errorf("bisection = %v, want %v", got, wantBisect)
	}
	// Cross-rack paths: 4 links, one per spine choice; same-rack: 2.
	src, dst := f.RackHosts(0)[0], f.RackHosts(3)[1]
	if got := f.ECMPWidth(src, dst); got != spines {
		t.Errorf("cross-rack ECMP width = %d, want %d", got, spines)
	}
	for c := 0; c < spines; c++ {
		if got := checkPath(t, f, src, dst, f.Path(src, dst, uint64(c))); got != 4 {
			t.Errorf("cross-rack path length = %d, want 4", got)
		}
	}
	same := f.RackHosts(0)[1]
	if got := checkPath(t, f, src, same, f.Path(src, same, 7)); got != 2 {
		t.Errorf("same-rack path length = %d, want 2", got)
	}
}

// TestFabricDeterminism pins that construction and path selection are pure
// functions: two builds are DeepEqual, and the seeded ECMP choice pattern
// a backend derives from (seed, flow) is reproducible.
func TestFabricDeterminism(t *testing.T) {
	build := func() *Fabric { return NewFatTree(6, 50*units.Gbps, 50*units.Gbps) }
	a, b := build(), build()
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) || !reflect.DeepEqual(a.Links(), b.Links()) {
		t.Fatal("two identical builds differ")
	}
	src, dst := a.Hosts()[2], a.Hosts()[40]
	for flow := 1; flow <= 32; flow++ {
		choice := sim.DeriveSeed(12345, uint64(flow))
		p1 := a.Path(src, dst, choice)
		p2 := b.Path(src, dst, choice)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("flow %d: path differs across builds", flow)
		}
	}
}

func TestFabricPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("odd k", func() { NewFatTree(5, units.Gbps, units.Gbps) })
	mustPanic("small k", func() { NewFatTree(2, units.Gbps, units.Gbps) })
	mustPanic("zero rate", func() { NewFatTree(4, 0, units.Gbps) })
	mustPanic("no leaves", func() { NewLeafSpine(0, 1, 1, units.Gbps, units.Gbps) })
	f := NewFatTree(4, units.Gbps, units.Gbps)
	mustPanic("same host", func() { f.Path(f.Hosts()[0], f.Hosts()[0], 0) })
	mustPanic("non-host", func() { f.Path(f.edges[0], f.Hosts()[0], 0) })
}
