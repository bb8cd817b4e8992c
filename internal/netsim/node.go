package netsim

import (
	"fmt"

	"mltcp/internal/sim"
)

// Switch forwards packets by destination NodeID over per-destination links.
type Switch struct {
	id     NodeID
	name   string
	routes []*Link // indexed by destination NodeID; nil means no route
}

// NewSwitch creates an empty switch.
func NewSwitch(id NodeID, name string) *Switch {
	return &Switch{id: id, name: name}
}

// ID returns the switch's node ID.
func (s *Switch) ID() NodeID { return s.id }

// AddRoute directs traffic for dst out of the given link. Later calls for
// the same destination replace the route.
func (s *Switch) AddRoute(dst NodeID, l *Link) {
	if dst < 0 {
		panic(fmt.Sprintf("netsim: switch %s route to negative node %d", s.name, dst))
	}
	s.routes = growTo(s.routes, int(dst))
	s.routes[dst] = l
}

// Receive implements Receiver.
func (s *Switch) Receive(_ *sim.Engine, p *Packet) {
	var l *Link
	if uint(p.Dst) < uint(len(s.routes)) {
		l = s.routes[p.Dst]
	}
	if l == nil {
		panic(fmt.Sprintf("netsim: switch %s has no route to node %d (flow %d)", s.name, p.Dst, p.Flow))
	}
	l.Send(p)
}

// growTo returns s extended with zero values so that index i is valid.
func growTo[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	return append(s, make([]T, i+1-len(s))...)
}

// Endpoint is a transport-layer attachment on a host: the host dispatches
// arriving packets for the endpoint's flow to it.
type Endpoint interface {
	HandlePacket(eng *sim.Engine, p *Packet)
}

// Host is an end node. Outbound packets go out its uplink; inbound packets
// are dispatched to the endpoint registered for their flow.
type Host struct {
	id        NodeID
	name      string
	uplink    *Link
	endpoints []Endpoint  // indexed by FlowID; nil means none attached
	pool      *PacketPool // shared with the topology; nil disables recycling
}

// NewHost creates a host. The uplink is attached later with SetUplink so
// hosts and links (which need a destination Receiver) can be built in
// either order.
func NewHost(id NodeID, name string) *Host {
	return &Host{id: id, name: name}
}

// ID returns the host's node ID.
func (h *Host) ID() NodeID { return h.id }

// Name returns the host's diagnostic name.
func (h *Host) Name() string { return h.name }

// SetUplink attaches the host's outbound link.
func (h *Host) SetUplink(l *Link) { h.uplink = l }

// Uplink returns the host's outbound link.
func (h *Host) Uplink() *Link { return h.uplink }

// SetPool attaches the topology's packet recycler. Endpoints obtain
// outbound packets from NewPacket and the host returns every dispatched
// inbound packet to the pool.
func (h *Host) SetPool(pp *PacketPool) { h.pool = pp }

// NewPacket returns a zeroed packet for an endpoint to populate and Send,
// drawn from the topology pool when one is attached.
//
// hot
func (h *Host) NewPacket() *Packet { return h.pool.Get() }

// Attach registers the endpoint handling the given flow. Attaching a second
// endpoint for the same flow panics: it is always a wiring bug.
func (h *Host) Attach(flow FlowID, ep Endpoint) {
	if flow < 0 {
		panic(fmt.Sprintf("netsim: host %s endpoint for negative flow %d", h.name, flow))
	}
	h.endpoints = growTo(h.endpoints, int(flow))
	if h.endpoints[flow] != nil {
		panic(fmt.Sprintf("netsim: host %s already has an endpoint for flow %d", h.name, flow))
	}
	h.endpoints[flow] = ep
}

// Send transmits a packet out the host's uplink, stamping the source.
func (h *Host) Send(p *Packet) {
	if h.uplink == nil {
		panic(fmt.Sprintf("netsim: host %s has no uplink", h.name))
	}
	p.Src = h.id
	h.uplink.Send(p)
}

// Receive implements Receiver, dispatching to the flow's endpoint. Packets
// for unknown flows panic: the simulator never produces stray traffic, so
// an unknown flow is a wiring bug. Dispatch is a packet's terminal event:
// endpoints consume fields synchronously and never retain the struct, so
// it is recycled as soon as HandlePacket returns.
//
// hot
func (h *Host) Receive(eng *sim.Engine, p *Packet) {
	var ep Endpoint
	if uint(p.Flow) < uint(len(h.endpoints)) {
		ep = h.endpoints[p.Flow]
	}
	if ep == nil {
		h.panicUnknownFlow(p)
	}
	ep.HandlePacket(eng, p)
	h.pool.Put(p)
}

// panicUnknownFlow keeps the panic formatting (whose fmt arguments box)
// out of the //hot dispatch body.
func (h *Host) panicUnknownFlow(p *Packet) {
	panic(fmt.Sprintf("netsim: host %s received packet for unknown flow %d", h.name, p.Flow))
}
