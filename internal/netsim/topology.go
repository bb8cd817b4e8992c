package netsim

import (
	"fmt"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// DumbbellConfig describes the paper's testbed topology: HostPairs senders
// on the left, their receivers on the right, and a single bottleneck link
// between two switches.
type DumbbellConfig struct {
	HostPairs int

	// HostRate is the edge-link rate (host <-> switch). It should be at
	// least the bottleneck rate so the bottleneck is the only point of
	// contention, as in the paper's testbed.
	HostRate units.Rate
	// BottleneckRate is the contended link's rate (the paper's 50 Gbps).
	BottleneckRate units.Rate

	// HostDelay and BottleneckDelay are one-way propagation delays.
	HostDelay       sim.Time
	BottleneckDelay sim.Time

	// BottleneckQueue builds the forward bottleneck's queue discipline.
	// Nil defaults to a drop-tail queue of DefaultQueuePackets.
	BottleneckQueue func() Queue

	// EdgeQueuePackets sizes every non-bottleneck queue, in MTU-sized
	// packets. Zero defaults to a generous 4096 so edges never drop.
	EdgeQueuePackets int
}

// DefaultQueuePackets is the default bottleneck buffer in packets, roughly
// a switch's shallow per-port buffer.
const DefaultQueuePackets = 100

// Dumbbell is the built topology. Senders attach flows to Left hosts,
// receivers to the corresponding Right hosts.
type Dumbbell struct {
	Left  []*Host
	Right []*Host
	// LeftSwitch and RightSwitch bracket the bottleneck.
	LeftSwitch  *Switch
	RightSwitch *Switch
	// Forward is the contended left-to-right bottleneck link; Reverse
	// carries ACKs back.
	Forward *Link
	Reverse *Link
}

// NewDumbbell builds the topology and all routing state.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	if cfg.HostPairs <= 0 {
		panic("netsim: dumbbell needs at least one host pair")
	}
	if cfg.EdgeQueuePackets == 0 {
		cfg.EdgeQueuePackets = 4096
	}
	edgeQueue := func() Queue { return NewDropTail(int64(cfg.EdgeQueuePackets) * DefaultMTU) }
	bnQueue := cfg.BottleneckQueue
	if bnQueue == nil {
		bnQueue = func() Queue { return NewDropTail(DefaultQueuePackets * DefaultMTU) }
	}

	d := &Dumbbell{}
	pool := NewPacketPool()
	nextID := NodeID(0)
	id := func() NodeID { nextID++; return nextID - 1 }
	track := func(l *Link) *Link { l.SetPool(pool); return l }

	d.LeftSwitch = NewSwitch(id(), "sw-left")
	d.RightSwitch = NewSwitch(id(), "sw-right")

	// Both directions of the bottleneck get the bottleneck buffer:
	// right-to-left data (reverse-direction flows, e.g. a ring's return
	// path) must not hide behind a deep edge queue, or forward ACKs
	// queueing behind it would suffer ~100ms delays and spurious RTOs.
	d.Forward = track(NewLink(eng, "bottleneck-fwd", cfg.BottleneckRate, cfg.BottleneckDelay, bnQueue(), d.RightSwitch))
	d.Reverse = track(NewLink(eng, "bottleneck-rev", cfg.BottleneckRate, cfg.BottleneckDelay, bnQueue(), d.LeftSwitch))

	for i := 0; i < cfg.HostPairs; i++ {
		lh := NewHost(id(), fmt.Sprintf("left-%d", i))
		rh := NewHost(id(), fmt.Sprintf("right-%d", i))
		lh.SetPool(pool)
		rh.SetPool(pool)
		d.Left = append(d.Left, lh)
		d.Right = append(d.Right, rh)

		lh.SetUplink(track(NewLink(eng, lh.Name()+"-up", cfg.HostRate, cfg.HostDelay, edgeQueue(), d.LeftSwitch)))
		rh.SetUplink(track(NewLink(eng, rh.Name()+"-up", cfg.HostRate, cfg.HostDelay, edgeQueue(), d.RightSwitch)))

		d.LeftSwitch.AddRoute(lh.ID(), track(NewLink(eng, lh.Name()+"-down", cfg.HostRate, cfg.HostDelay, edgeQueue(), lh)))
		d.RightSwitch.AddRoute(rh.ID(), track(NewLink(eng, rh.Name()+"-down", cfg.HostRate, cfg.HostDelay, edgeQueue(), rh)))

		// Cross-bottleneck routes.
		d.LeftSwitch.AddRoute(rh.ID(), d.Forward)
		d.RightSwitch.AddRoute(lh.ID(), d.Reverse)
	}
	return d
}
