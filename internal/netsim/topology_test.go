package netsim

import (
	"fmt"
	"testing"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// echoEndpoint counts received data packets and acks nothing.
type echoEndpoint struct {
	got int
	eng *sim.Engine
}

func (e *echoEndpoint) HandlePacket(_ *sim.Engine, p *Packet) { e.got++ }

func testDumbbell(eng *sim.Engine, pairs int) *Dumbbell {
	return NewDumbbell(eng, DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        10 * units.Gbps,
		BottleneckRate:  1 * units.Gbps,
		HostDelay:       5 * sim.Microsecond,
		BottleneckDelay: 20 * sim.Microsecond,
	})
}

func TestDumbbellForwardDelivery(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 2)
	ep := &echoEndpoint{}
	d.Right[1].Attach(42, ep)
	d.Left[0].Send(&Packet{Flow: 42, Dst: d.Right[1].ID(), Payload: 1000})
	eng.Run()
	if ep.got != 1 {
		t.Fatalf("endpoint received %d packets, want 1", ep.got)
	}
	if d.Forward.Stats().PacketsSent != 1 {
		t.Errorf("bottleneck carried %d packets, want 1", d.Forward.Stats().PacketsSent)
	}
}

func TestDumbbellReverseDelivery(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 1)
	ep := &echoEndpoint{}
	d.Left[0].Attach(7, ep)
	d.Right[0].Send(&Packet{Flow: 7, Dst: d.Left[0].ID(), Ack: true})
	eng.Run()
	if ep.got != 1 {
		t.Fatalf("left endpoint received %d, want 1", ep.got)
	}
	if d.Reverse.Stats().PacketsSent != 1 {
		t.Errorf("reverse bottleneck carried %d, want 1", d.Reverse.Stats().PacketsSent)
	}
}

func TestDumbbellEndToEndLatency(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 1)
	var arrival sim.Time
	done := func(e *sim.Engine, p *Packet) { arrival = e.Now() }
	d.Right[0].Attach(1, endpointFunc(done))
	d.Left[0].Send(&Packet{Flow: 1, Dst: d.Right[0].ID(), Payload: MaxPayload})
	eng.Run()
	// Path: host uplink (10G: 1.2µs + 5µs) -> bottleneck (1G: 12µs +
	// 20µs) -> host downlink (10G: 1.2µs + 5µs) = 44.4µs.
	want := sim.Time(44400)
	if arrival != want {
		t.Errorf("arrival = %v, want %v", arrival, want)
	}
}

type endpointFunc func(*sim.Engine, *Packet)

func (f endpointFunc) HandlePacket(e *sim.Engine, p *Packet) { f(e, p) }

func TestDumbbellSharedBottleneck(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 3)
	for i := 0; i < 3; i++ {
		d.Right[i].Attach(FlowID(i), &echoEndpoint{})
	}
	// All three left hosts blast packets; everything funnels through the
	// single forward bottleneck.
	for i := 0; i < 3; i++ {
		for k := 0; k < 10; k++ {
			d.Left[i].Send(&Packet{Flow: FlowID(i), Dst: d.Right[i].ID(), Payload: 1000})
		}
	}
	eng.Run()
	if got := d.Forward.Stats().PacketsSent; got != 30 {
		t.Errorf("bottleneck carried %d packets, want 30", got)
	}
}

// mustPanicWith runs fn and fails unless it panics with exactly msg.
func mustPanicWith(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != msg {
			t.Errorf("panic = %v, want %q", got, msg)
		}
	}()
	fn()
}

// TestHostAttachDuplicatePanics also pins the negative-flow refusal and
// that a refused Attach leaves the first endpoint in place.
func TestHostAttachDuplicatePanics(t *testing.T) {
	h := NewHost(1, "h")
	ep := &echoEndpoint{}
	h.Attach(1, ep)
	mustPanicWith(t, "netsim: host h already has an endpoint for flow 1", func() {
		h.Attach(1, &echoEndpoint{})
	})
	mustPanicWith(t, "netsim: host h endpoint for negative flow -2", func() {
		h.Attach(-2, &echoEndpoint{})
	})
	h.Receive(sim.New(), &Packet{Flow: 1})
	if ep.got != 1 {
		t.Errorf("first endpoint saw %d packets, want 1", ep.got)
	}
}

// TestHostUnknownFlowPanics covers flows below, above, far above and
// outside (negative) the attached one.
func TestHostUnknownFlowPanics(t *testing.T) {
	eng := sim.New()
	h := NewHost(1, "h")
	mustPanicWith(t, "netsim: host h received packet for unknown flow 99", func() {
		h.Receive(eng, &Packet{Flow: 99})
	})
	h.Attach(4, &echoEndpoint{})
	for _, flow := range []FlowID{3, 5, 1 << 20, -1} {
		mustPanicWith(t, fmt.Sprintf("netsim: host h received packet for unknown flow %d", flow), func() {
			h.Receive(eng, &Packet{Flow: flow})
		})
	}
}

// TestSwitchNoRoutePanics covers a switch with no routes, destinations
// below, between, above and outside (negative) the routed one, and the
// refusal of a route to a negative node.
func TestSwitchNoRoutePanics(t *testing.T) {
	eng := sim.New()
	s := NewSwitch(1, "s")
	mustPanicWith(t, "netsim: switch s has no route to node 5 (flow 0)", func() {
		s.Receive(eng, &Packet{Dst: 5})
	})
	mustPanicWith(t, "netsim: switch s route to negative node -1", func() {
		s.AddRoute(-1, NewLink(eng, "neg", units.Gbps, 0, NewDropTail(1<<20), &sink{}))
	})
	s.AddRoute(3, NewLink(eng, "l3", units.Gbps, 0, NewDropTail(1<<20), &sink{}))
	for _, dst := range []NodeID{0, 2, 4, 1 << 20, -1} {
		mustPanicWith(t, fmt.Sprintf("netsim: switch s has no route to node %d (flow 7)", dst), func() {
			s.Receive(eng, &Packet{Dst: dst, Flow: 7})
		})
	}
}

func TestSwitchAddRouteReplaces(t *testing.T) {
	eng := sim.New()
	first, second := &sink{}, &sink{}
	s := NewSwitch(0, "s")
	s.AddRoute(1, NewLink(eng, "a", units.Gbps, 0, NewDropTail(1<<20), first))
	s.AddRoute(1, NewLink(eng, "b", units.Gbps, 0, NewDropTail(1<<20), second))
	s.Receive(eng, &Packet{Dst: 1})
	eng.Run()
	if len(first.pkts) != 0 || len(second.pkts) != 1 {
		t.Errorf("deliveries: replaced route %d, new route %d; want 0 and 1", len(first.pkts), len(second.pkts))
	}
}

func TestDumbbellConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero host pairs did not panic")
		}
	}()
	NewDumbbell(sim.New(), DumbbellConfig{HostPairs: 0, HostRate: 1, BottleneckRate: 1})
}
