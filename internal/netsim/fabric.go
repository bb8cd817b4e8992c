package netsim

import (
	"fmt"

	"mltcp/internal/units"
)

// Role classifies a node in a multi-rack fabric. Fat-trees use all four
// roles; leaf-spine fabrics use hosts, edges (leaves), and cores (spines).
type Role uint8

const (
	// RoleHost is a server attached to one edge switch.
	RoleHost Role = iota
	// RoleEdge is a top-of-rack (fat-tree edge, leaf-spine leaf) switch.
	RoleEdge
	// RoleAgg is a fat-tree aggregation switch inside one pod.
	RoleAgg
	// RoleCore is a fat-tree core or leaf-spine spine switch.
	RoleCore
)

var roleNames = [...]string{RoleHost: "host", RoleEdge: "edge", RoleAgg: "agg", RoleCore: "core"}

// String returns the role's display name.
func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return "unknown"
}

// FabricNode is one node of a fabric graph.
type FabricNode struct {
	// ID is the node's index in Fabric.Nodes.
	ID int
	// Name is the node's stable display name ("host3", "tor1", "agg0.1",
	// "core1.0", "spine2").
	Name string
	// Role classifies the node.
	Role Role
	// Pod is the fat-tree pod index (-1 for core switches and every
	// leaf-spine node).
	Pod int
	// Rack is the rack index for hosts and edge switches (-1 otherwise).
	// Rack r's edge switch is the attachment point of its hosts.
	Rack int
}

// FabricLink is one directed capacitated link of a fabric graph. Every
// physical cable appears as two FabricLinks, one per direction.
type FabricLink struct {
	// ID is the link's index in Fabric.Links — the index the fluid
	// allocator's paths refer to.
	ID int
	// From and To are node IDs.
	From, To int
	// Capacity is the link rate.
	Capacity units.Rate
}

// Fabric is a cluster-scale topology graph: typed nodes, directed
// capacitated links, and deterministic equal-cost path selection between
// hosts. It is backend-agnostic — the fluid allocator consumes link
// indices and capacities; structural accessors serve tests and reports.
type Fabric struct {
	// Kind labels the built topology ("fattree-4", "leafspine-4x2x4").
	Kind string

	nodes []FabricNode
	links []FabricLink

	hosts []int   // host node IDs, construction order
	racks [][]int // racks[r] = host node IDs in rack r
	edges []int   // edges[r] = rack r's edge-switch node ID

	// out[n] lists the IDs of the links leaving node n, for path
	// assembly. Each list is carved from outBuf with its node's degree as
	// capacity, so adding a link never allocates.
	out    [][]int32
	outBuf []int32

	// Fat-tree shape (k == 0 for leaf-spine).
	k     int
	aggs  [][]int // aggs[pod][a]
	cores [][]int // cores[group a][offset o]

	// Leaf-spine shape.
	spines []int

	hostRate, linkRate units.Rate
}

// Nodes returns every node, indexed by ID.
func (f *Fabric) Nodes() []FabricNode { return f.nodes }

// Links returns every directed link, indexed by ID.
func (f *Fabric) Links() []FabricLink { return f.links }

// Hosts returns the host node IDs in construction order.
func (f *Fabric) Hosts() []int { return f.hosts }

// Racks returns the number of racks (edge switches).
func (f *Fabric) Racks() int { return len(f.racks) }

// RackHosts returns the host node IDs attached to rack r.
func (f *Fabric) RackHosts(r int) []int { return f.racks[r] }

// CountByRole returns the number of nodes with the given role.
func (f *Fabric) CountByRole(role Role) int {
	n := 0
	for _, nd := range f.nodes {
		if nd.Role == role {
			n++
		}
	}
	return n
}

// reserve presizes the node and link tables for a fabric of the given
// size.
func (f *Fabric) reserve(nodes, links int) {
	f.nodes = make([]FabricNode, 0, nodes)
	f.out = make([][]int32, 0, nodes)
	f.links = make([]FabricLink, 0, links)
	f.outBuf = make([]int32, 0, links)
}

// node allocates a node with room for degree outgoing links and returns
// its ID.
func (f *Fabric) node(name string, role Role, pod, rack, degree int) int {
	id := len(f.nodes)
	f.nodes = append(f.nodes, FabricNode{ID: id, Name: name, Role: role, Pod: pod, Rack: rack})
	lo := len(f.outBuf)
	f.outBuf = f.outBuf[:lo+degree]
	f.out = append(f.out, f.outBuf[lo:lo:lo+degree])
	return id
}

// connect adds the two directed links of one cable, a->b then b->a, so
// every cable's links have IDs 2m and 2m+1: each is the other's ID with
// the low bit flipped.
func (f *Fabric) connect(a, b int, rate units.Rate) {
	f.addLink(a, b, rate)
	f.addLink(b, a, rate)
}

func (f *Fabric) addLink(from, to int, rate units.Rate) {
	id := len(f.links)
	f.links = append(f.links, FabricLink{ID: id, From: from, To: to, Capacity: rate})
	f.out[from] = append(f.out[from], int32(id))
}

// linkID returns the directed link from -> to, panicking if absent (a
// programming error in path assembly, not a user input). It scans the
// shorter of the two nodes' link lists: a spine's list is as long as
// the leaf count.
func (f *Fabric) linkID(from, to int) int {
	if len(f.out[to]) < len(f.out[from]) {
		if id := f.outLink(to, from); id >= 0 {
			return id ^ 1 // the cable's other direction
		}
	} else if id := f.outLink(from, to); id >= 0 {
		return id
	}
	panic(fmt.Sprintf("netsim: fabric %s has no link %s->%s",
		f.Kind, f.nodes[from].Name, f.nodes[to].Name))
}

// outLink returns the ID of the link from -> to among from's links, or
// -1.
func (f *Fabric) outLink(from, to int) int {
	for _, id := range f.out[from] {
		if f.links[id].To == to {
			return int(id)
		}
	}
	return -1
}

// NewFatTree builds the classic k-ary fat-tree (Al-Fares et al.): k pods,
// each with k/2 edge and k/2 aggregation switches, (k/2)² core switches in
// k/2 groups, and k/2 hosts per edge switch — k³/4 hosts total. Host
// uplinks run at hostRate, every switch-to-switch link at linkRate; with
// equal rates the fabric has full bisection bandwidth. k must be even and
// at least 4 (validated upstream by config; this panics on violation).
func NewFatTree(k int, hostRate, linkRate units.Rate) *Fabric {
	if k < 4 || k%2 != 0 {
		panic(fmt.Sprintf("netsim: fat-tree arity %d must be even and >= 4", k))
	}
	if hostRate <= 0 || linkRate <= 0 {
		panic("netsim: fat-tree link rates must be positive")
	}
	half := k / 2
	f := &Fabric{Kind: fmt.Sprintf("fattree-%d", k), k: k, hostRate: hostRate, linkRate: linkRate}
	hosts := k * k * k / 4
	// Cores, aggregation and edge switches, then hosts; three cables per
	// host (host-edge, edge-agg, agg-core), two links per cable.
	f.reserve(half*half+k*k+hosts, 6*hosts)
	f.hosts = make([]int, 0, hosts)
	f.edges = make([]int, 0, k*half)
	f.racks = make([][]int, 0, k*half)

	// Core layer: k/2 groups of k/2 switches. Group a serves aggregation
	// switch a of every pod.
	f.cores = make([][]int, half)
	for a := 0; a < half; a++ {
		f.cores[a] = make([]int, half)
		for o := 0; o < half; o++ {
			f.cores[a][o] = f.node(fmt.Sprintf("core%d.%d", a, o), RoleCore, -1, -1, k)
		}
	}

	f.aggs = make([][]int, k)
	for p := 0; p < k; p++ {
		f.aggs[p] = make([]int, half)
		for a := 0; a < half; a++ {
			f.aggs[p][a] = f.node(fmt.Sprintf("agg%d.%d", p, a), RoleAgg, p, -1, k)
		}
		for e := 0; e < half; e++ {
			rack := p*half + e
			edge := f.node(fmt.Sprintf("tor%d", rack), RoleEdge, p, rack, k)
			f.edges = append(f.edges, edge)
			f.racks = append(f.racks, make([]int, 0, half))
			for h := 0; h < half; h++ {
				host := f.node(fmt.Sprintf("host%d", len(f.hosts)), RoleHost, p, rack, 1)
				f.hosts = append(f.hosts, host)
				f.racks[rack] = append(f.racks[rack], host)
				f.connect(host, edge, hostRate)
			}
			for a := 0; a < half; a++ {
				f.connect(edge, f.aggs[p][a], linkRate)
			}
		}
		for a := 0; a < half; a++ {
			for o := 0; o < half; o++ {
				f.connect(f.aggs[p][a], f.cores[a][o], linkRate)
			}
		}
	}
	return f
}

// NewLeafSpine builds a two-tier leaf-spine fabric: `leaves` racks of
// `hostsPerLeaf` hosts each, every leaf connected to every one of
// `spines` spine switches. Host uplinks run at hostRate, leaf-spine links
// at linkRate; the leaf oversubscription ratio is
// hostsPerLeaf·hostRate / (spines·linkRate).
func NewLeafSpine(leaves, spines, hostsPerLeaf int, hostRate, linkRate units.Rate) *Fabric {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		panic("netsim: leaf-spine needs leaves, spines, hosts_per_leaf >= 1")
	}
	if hostRate <= 0 || linkRate <= 0 {
		panic("netsim: leaf-spine link rates must be positive")
	}
	f := &Fabric{
		Kind:     fmt.Sprintf("leafspine-%dx%dx%d", leaves, spines, hostsPerLeaf),
		hostRate: hostRate, linkRate: linkRate,
	}
	hosts := leaves * hostsPerLeaf
	f.reserve(spines+leaves+hosts, 2*(hosts+leaves*spines))
	f.spines = make([]int, 0, spines)
	f.hosts = make([]int, 0, hosts)
	f.edges = make([]int, 0, leaves)
	f.racks = make([][]int, 0, leaves)
	for s := 0; s < spines; s++ {
		f.spines = append(f.spines, f.node(fmt.Sprintf("spine%d", s), RoleCore, -1, -1, leaves))
	}
	for r := 0; r < leaves; r++ {
		edge := f.node(fmt.Sprintf("tor%d", r), RoleEdge, -1, r, hostsPerLeaf+spines)
		f.edges = append(f.edges, edge)
		f.racks = append(f.racks, make([]int, 0, hostsPerLeaf))
		for h := 0; h < hostsPerLeaf; h++ {
			host := f.node(fmt.Sprintf("host%d", len(f.hosts)), RoleHost, -1, r, 1)
			f.hosts = append(f.hosts, host)
			f.racks[r] = append(f.racks[r], host)
			f.connect(host, edge, hostRate)
		}
		for _, sp := range f.spines {
			f.connect(edge, sp, linkRate)
		}
	}
	return f
}

// ECMPWidth returns the number of equal-cost shortest paths between two
// hosts: 1 within a rack, k/2 across racks of one fat-tree pod, (k/2)²
// across pods, and the spine count across leaf-spine racks.
func (f *Fabric) ECMPWidth(src, dst int) int {
	s, d := f.nodes[src], f.nodes[dst]
	f.checkHostPair(s, d)
	switch {
	case s.Rack == d.Rack:
		return 1
	case f.k == 0: // leaf-spine
		return len(f.spines)
	case s.Pod == d.Pod:
		return f.k / 2
	default:
		return (f.k / 2) * (f.k / 2)
	}
}

// Path returns the directed link IDs of one shortest path from host src
// to host dst. Among the ECMPWidth equal-cost candidates it picks number
// choice % ECMPWidth — a pure function of its arguments, so callers that
// derive choice from (run seed, flow ID) get worker-count-independent,
// replayable path selection.
func (f *Fabric) Path(src, dst int, choice uint64) []int {
	s, d := f.nodes[src], f.nodes[dst]
	f.checkHostPair(s, d)
	if src == dst {
		panic("netsim: fabric path needs distinct hosts")
	}
	se, de := f.edges[s.Rack], f.edges[d.Rack]
	switch {
	case s.Rack == d.Rack:
		return []int{f.linkID(src, se), f.linkID(se, dst)}
	case f.k == 0: // leaf-spine: up, across the chosen spine, down
		sp := f.spines[int(choice%uint64(len(f.spines)))]
		return []int{
			f.linkID(src, se), f.linkID(se, sp), f.linkID(sp, de), f.linkID(de, dst),
		}
	case s.Pod == d.Pod: // one pod: up to the chosen aggregation switch
		half := uint64(f.k / 2)
		a := int(choice % half)
		agg := f.aggs[s.Pod][a]
		return []int{
			f.linkID(src, se), f.linkID(se, agg), f.linkID(agg, de), f.linkID(de, dst),
		}
	default: // across pods: the chosen core fixes both pods' agg switches
		half := uint64(f.k / 2)
		a := int(choice % half)
		o := int(choice / half % half)
		core := f.cores[a][o]
		sa, da := f.aggs[s.Pod][a], f.aggs[d.Pod][a]
		return []int{
			f.linkID(src, se), f.linkID(se, sa), f.linkID(sa, core),
			f.linkID(core, da), f.linkID(da, de), f.linkID(de, dst),
		}
	}
}

func (f *Fabric) checkHostPair(s, d FabricNode) {
	if s.Role != RoleHost || d.Role != RoleHost {
		panic(fmt.Sprintf("netsim: fabric paths connect hosts, got %s and %s", s.Role, d.Role))
	}
}

// BisectionBandwidth returns the aggregate capacity crossing an even
// two-way split of the racks: k³/8 core-layer links for a fat-tree,
// (leaves/2)·spines leaf uplinks for a leaf-spine fabric.
func (f *Fabric) BisectionBandwidth() units.Rate {
	if f.k > 0 {
		return units.Rate(float64(f.k*f.k*f.k/8) * float64(f.linkRate))
	}
	return units.Rate(float64(len(f.racks)/2*len(f.spines)) * float64(f.linkRate))
}

// Oversubscription returns the edge oversubscription ratio: attached host
// bandwidth over fabric-facing uplink bandwidth of one edge switch. 1.0
// (with equal rates) means a rearrangeably non-blocking fabric.
func (f *Fabric) Oversubscription() float64 {
	hostsPerEdge := len(f.racks[0])
	uplinks := len(f.spines)
	if f.k > 0 {
		uplinks = f.k / 2
	}
	return float64(hostsPerEdge) * float64(f.hostRate) /
		(float64(uplinks) * float64(f.linkRate))
}
