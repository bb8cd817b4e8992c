package netsim

import (
	"testing"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// sink records delivered packets with their delivery times.
type sink struct {
	pkts  []*Packet
	times []sim.Time
}

func (s *sink) Receive(eng *sim.Engine, p *Packet) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, eng.Now())
}

func TestLinkSerializationAndDelay(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	l := NewLink(eng, "l", 1*units.Gbps, 100*sim.Microsecond, NewDropTail(1<<20), dst)
	p := &Packet{Payload: MaxPayload} // 1500B wire
	l.Send(p)
	eng.Run()
	// 1500B at 1Gbps = 12µs serialization + 100µs propagation.
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	if want := 112 * sim.Microsecond; dst.times[0] != want {
		t.Errorf("delivery at %v, want %v", dst.times[0], want)
	}
	st := l.Stats()
	if st.PacketsSent != 1 || st.BytesSent != DefaultMTU {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkBackToBackSerialization(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	l := NewLink(eng, "l", 1*units.Gbps, 0, NewDropTail(1<<20), dst)
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Seq: int64(i), Payload: MaxPayload})
	}
	eng.Run()
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.pkts))
	}
	// Deliveries spaced exactly one serialization time (12µs) apart.
	for i, want := range []sim.Time{12, 24, 36} {
		if dst.times[i] != want*sim.Microsecond {
			t.Errorf("delivery %d at %v, want %dµs", i, dst.times[i], want)
		}
		if dst.pkts[i].Seq != int64(i) {
			t.Errorf("delivery %d is seq %d", i, dst.pkts[i].Seq)
		}
	}
}

func TestLinkQueueDropsCounted(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	// Queue holds 2 packets; the first Send goes straight into
	// transmission, so sends 4..N overflow.
	l := NewLink(eng, "l", 1*units.Gbps, 0, NewDropTail(2*DefaultMTU), dst)
	for i := 0; i < 5; i++ {
		l.Send(&Packet{Payload: MaxPayload})
	}
	eng.Run()
	st := l.Stats()
	if st.PacketsDropped != 2 {
		t.Errorf("dropped = %d, want 2", st.PacketsDropped)
	}
	if len(dst.pkts) != 3 {
		t.Errorf("delivered = %d, want 3", len(dst.pkts))
	}
}

func TestLinkRandomLoss(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	l := NewLink(eng, "l", 10*units.Gbps, 0, NewDropTail(1<<30), dst)
	l.LossProb = 0.3
	l.RNG = sim.NewRNG(1)
	const n = 20000
	var send func(e *sim.Engine)
	i := 0
	send = func(e *sim.Engine) {
		if i >= n {
			return
		}
		i++
		l.Send(&Packet{Payload: 100})
		e.After(sim.Microsecond, send)
	}
	eng.At(0, send)
	eng.Run()
	st := l.Stats()
	if st.PacketsSent != n {
		t.Fatalf("sent = %d, want %d", st.PacketsSent, n)
	}
	lossRate := float64(st.PacketsLost) / n
	if lossRate < 0.27 || lossRate > 0.33 {
		t.Errorf("loss rate = %v, want ~0.3", lossRate)
	}
	if int64(len(dst.pkts))+st.PacketsLost != n {
		t.Errorf("delivered %d + lost %d != sent %d", len(dst.pkts), st.PacketsLost, n)
	}
}

func TestLinkTapSeesSerializedPackets(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	l := NewLink(eng, "l", 1*units.Gbps, sim.Millisecond, NewDropTail(1<<20), dst)
	var tapped int
	l.AddTap(func(now sim.Time, p *Packet) {
		tapped++
		if now != 12*sim.Microsecond {
			t.Errorf("tap at %v, want 12µs (serialization end, before propagation)", now)
		}
	})
	l.Send(&Packet{Payload: MaxPayload})
	eng.Run()
	if tapped != 1 {
		t.Errorf("tapped = %d, want 1", tapped)
	}
}

func TestBandwidthMonitor(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	l := NewLink(eng, "l", 1*units.Gbps, 0, NewDropTail(1<<30), dst)
	m := NewBandwidthMonitor(l, 10*sim.Millisecond)
	// Flow 1 sends 100 packets immediately; flow 2 sends 50 at t=15ms.
	for i := 0; i < 100; i++ {
		l.Send(&Packet{Flow: 1, Payload: MaxPayload})
	}
	eng.At(15*sim.Millisecond, func(*sim.Engine) {
		for i := 0; i < 50; i++ {
			l.Send(&Packet{Flow: 2, Payload: MaxPayload})
		}
	})
	// ACKs should be invisible to the monitor.
	l.Send(&Packet{Flow: 3, Ack: true})
	eng.Run()

	if got := m.FlowBytes(1); got != 100*DefaultMTU {
		t.Errorf("flow 1 bytes = %d, want %d", got, 100*DefaultMTU)
	}
	if got := m.FlowBytes(2); got != 50*DefaultMTU {
		t.Errorf("flow 2 bytes = %d, want %d", got, 50*DefaultMTU)
	}
	if got := m.FlowBytes(3); got != 0 {
		t.Errorf("ACK flow bytes = %d, want 0", got)
	}
	flows := m.Flows()
	if len(flows) != 2 || flows[0] != 1 || flows[1] != 2 {
		t.Errorf("Flows() = %v, want [1 2]", flows)
	}
	// Flow 1's 100 packets take 1.2ms, all inside bucket 0.
	s1 := m.FlowSeries(1)
	if len(s1) == 0 || s1[0] == 0 {
		t.Fatalf("flow 1 series empty: %v", s1)
	}
	wantRate := units.Rate(float64(100*DefaultMTU*8) / 0.010)
	if s1[0] != wantRate {
		t.Errorf("flow 1 bucket 0 = %v, want %v", s1[0], wantRate)
	}
	// Flow 2's traffic lands in bucket 1 (15ms..16ms area).
	s2 := m.FlowSeries(2)
	if len(s2) < 2 || s2[1] == 0 {
		t.Errorf("flow 2 series = %v, want traffic in bucket 1", s2)
	}
	total := m.TotalSeries()
	if total[0] != s1[0] {
		t.Errorf("total bucket 0 = %v, want %v", total[0], s1[0])
	}
}

func TestLinkConstructorPanics(t *testing.T) {
	eng := sim.New()
	for name, fn := range map[string]func(){
		"zero-rate":      func() { NewLink(eng, "x", 0, 0, NewDropTail(1), &sink{}) },
		"negative-delay": func() { NewLink(eng, "x", 1, -1, NewDropTail(1), &sink{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLinkHeavyJitterNeverReorders(t *testing.T) {
	eng := sim.New()
	dst := &sink{}
	// Jitter std 100x the serialization gap: only the monotone-arrival
	// clamp prevents reordering on this FIFO link.
	l := NewLink(eng, "l", 1*units.Gbps, 100*sim.Microsecond, NewDropTail(1<<30), dst)
	l.JitterStd = 2 * sim.Millisecond
	l.RNG = sim.NewRNG(3)
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Seq: int64(i), Payload: 100})
	}
	eng.Run()
	if len(dst.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(dst.pkts), n)
	}
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("reordered at %d: got seq %d", i, p.Seq)
		}
	}
	// Arrival times strictly increase.
	for i := 1; i < len(dst.times); i++ {
		if dst.times[i] <= dst.times[i-1] {
			t.Fatalf("non-monotone arrivals at %d", i)
		}
	}
	// And jitter actually perturbed delays: arrival gaps must vary.
	varies := false
	base := dst.times[1] - dst.times[0]
	for i := 2; i < len(dst.times); i++ {
		if dst.times[i]-dst.times[i-1] != base {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("jitter had no effect on arrival gaps")
	}
}

// TestLinkSerializationTimePerWireSize interleaves wire sizes on one link
// — MSS data, a header-only ACK, an odd payload, MSS again — so the
// link's memoized serialization time must be refreshed on every size
// change. Each packet's serialization must end exactly
// rate.TransmissionTime(size) after the previous one (back to back) or
// after its own Send (idle link).
func TestLinkSerializationTimePerWireSize(t *testing.T) {
	eng := sim.New()
	rate := 7 * units.Mbps // odd rate: every size rounds differently
	l := NewLink(eng, "l", rate, 0, NewDropTail(1<<20), &sink{})
	var done []sim.Time
	l.AddTap(func(now sim.Time, _ *Packet) { done = append(done, now) })
	payloads := []int{MaxPayload, 0, 333, MaxPayload, MaxPayload, 0}
	// The first four queue back to back; each of the last two finds the
	// link idle and starts at its own Send.
	var want []sim.Time
	end := sim.Time(0)
	for i, pl := range payloads {
		if i >= 4 {
			eng.Run()
			eng.RunUntil(eng.Now() + sim.Millisecond)
			end = eng.Now()
		}
		l.Send(&Packet{Payload: pl})
		end += rate.TransmissionTime(int64(pl + HeaderBytes))
		want = append(want, end)
	}
	eng.Run()
	if len(done) != len(want) {
		t.Fatalf("serialized %d packets, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("packet %d (%dB payload) serialized at %v, want %v", i, payloads[i], done[i], want[i])
		}
	}
}
