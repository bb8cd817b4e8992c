package tcp

import (
	"testing"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// testNet builds a small dumbbell for transport tests: 100 Mbps bottleneck,
// 1 Gbps edges, ~208µs base RTT.
func testNet(eng *sim.Engine, pairs int, queue func() netsim.Queue) *netsim.Dumbbell {
	return netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        1 * units.Gbps,
		BottleneckRate:  100 * units.Mbps,
		HostDelay:       10 * sim.Microsecond,
		BottleneckDelay: 30 * sim.Microsecond,
		BottleneckQueue: queue,
	})
}

func TestSingleFlowTransfersAllBytes(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const total = 5_000_000
	var drainedAt sim.Time
	f.Sender.Drained(func(now sim.Time) { drainedAt = now })
	f.Sender.Write(total)
	eng.RunUntil(10 * sim.Second)

	if got := f.Receiver.BytesReceived(); got != total {
		t.Fatalf("received %d bytes, want %d", got, total)
	}
	if f.Sender.TotalBytesAcked() != total {
		t.Fatalf("acked %d, want %d", f.Sender.TotalBytesAcked(), total)
	}
	if drainedAt == 0 {
		t.Fatal("drained callback never fired")
	}
	// 5MB at 100Mbps is 0.4s minimum; slow start adds some.
	if drainedAt < 400*sim.Millisecond || drainedAt > 1200*sim.Millisecond {
		t.Errorf("drain at %v, want ~0.4-1.2s", drainedAt)
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const total = 20_000_000
	var drainedAt sim.Time
	f.Sender.Drained(func(now sim.Time) { drainedAt = now })
	f.Sender.Write(total)
	eng.RunUntil(30 * sim.Second)
	if drainedAt == 0 {
		t.Fatal("transfer did not finish")
	}
	gput := float64(total) * 8 / drainedAt.Seconds()
	// Goodput should be at least 85% of the 100 Mbps bottleneck
	// (header overhead is ~2.7%, slow start a bit more).
	if gput < 85e6 {
		t.Errorf("goodput = %.1f Mbps, want >= 85", gput/1e6)
	}
}

func TestRTTEstimation(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	f.Sender.Write(100_000)
	eng.RunUntil(time500ms)
	srtt := f.Sender.SRTT()
	// Base RTT: 2 host links each way + bottleneck each way
	// = 2*(10+10+30)µs propagation + serialization; a full 100-packet
	// bottleneck buffer adds up to 12ms of queueing delay.
	if srtt < 100*sim.Microsecond || srtt > 13*sim.Millisecond {
		t.Errorf("srtt = %v, want ~100µs-13ms", srtt)
	}
	if f.Sender.RTO() < 10*sim.Millisecond {
		t.Errorf("rto = %v, below MinRTO", f.Sender.RTO())
	}
}

const time500ms = 500 * sim.Millisecond

func TestFastRetransmitRecoversFromLoss(t *testing.T) {
	eng := sim.New()
	// Small bottleneck queue forces drops during slow start.
	net := testNet(eng, 1, func() netsim.Queue { return netsim.NewDropTail(20 * netsim.DefaultMTU) })
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const total = 10_000_000
	done := false
	f.Sender.Drained(func(sim.Time) { done = true })
	f.Sender.Write(total)
	eng.RunUntil(30 * sim.Second)
	st := f.Sender.Stats()
	if !done {
		t.Fatalf("transfer incomplete: acked %d/%d (stats %+v)", f.Sender.TotalBytesAcked(), total, st)
	}
	if st.FastRecoveries == 0 {
		t.Error("expected at least one fast recovery with a 20-packet buffer")
	}
	if f.Receiver.BytesReceived() != total {
		t.Errorf("received %d, want %d", f.Receiver.BytesReceived(), total)
	}
}

func TestTimeoutRecovery(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	// Random heavy wire loss on the bottleneck to provoke timeouts
	// (dup-ACK recovery handles isolated drops; bursts need the RTO).
	net.Forward.LossProb = 0.30
	net.Forward.RNG = sim.NewRNG(3)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const total = 300_000
	done := false
	f.Sender.Drained(func(sim.Time) { done = true })
	f.Sender.Write(total)
	eng.RunUntil(120 * sim.Second)
	if !done {
		t.Fatalf("transfer incomplete under loss: acked %d/%d, stats %+v",
			f.Sender.TotalBytesAcked(), total, f.Sender.Stats())
	}
	if f.Receiver.BytesReceived() != total {
		t.Errorf("received %d, want %d", f.Receiver.BytesReceived(), total)
	}
}

func TestTwoRenoFlowsShareFairly(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 2, nil)
	f1 := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	f2 := NewFlow(eng, 2, net.Left[1], net.Right[1], NewReno(), Config{})
	// Saturating demands.
	f1.Sender.Write(1 << 40)
	f2.Sender.Write(1 << 40)
	eng.RunUntil(20 * sim.Second)
	b1 := float64(f1.Sender.TotalBytesAcked())
	b2 := float64(f2.Sender.TotalBytesAcked())
	ratio := b1 / b2
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("long-run share ratio = %.2f (b1=%.0f b2=%.0f), want ~1", ratio, b1, b2)
	}
	// Combined they should saturate the link.
	gput := (b1 + b2) * 8 / 20
	if gput < 85e6 {
		t.Errorf("aggregate goodput = %.1f Mbps, want >= 85", gput/1e6)
	}
}

func TestIterativeWritesAndDrainCallbacks(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const perIter = 500_000
	iters := 0
	f.Sender.Drained(func(now sim.Time) {
		iters++
		if iters < 5 {
			// Simulate a compute phase before the next iteration.
			eng.After(50*sim.Millisecond, func(*sim.Engine) {
				f.Sender.Write(perIter)
			})
		}
	})
	f.Sender.Write(perIter)
	eng.RunUntil(60 * sim.Second)
	if iters != 5 {
		t.Fatalf("completed %d iterations, want 5", iters)
	}
	if got := f.Receiver.BytesReceived(); got != 5*perIter {
		t.Errorf("received %d, want %d", got, 5*perIter)
	}
}

func TestSlowStartAfterIdleResetsCwnd(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	f.Sender.Write(2_000_000)
	var cwndAfterBatch float64
	f.Sender.Drained(func(now sim.Time) {
		if cwndAfterBatch == 0 {
			cwndAfterBatch = f.Sender.Cwnd()
			eng.After(sim.Second, func(*sim.Engine) { // long idle
				f.Sender.Write(1000)
			})
		}
	})
	eng.RunUntil(5 * sim.Second)
	if cwndAfterBatch <= DefaultInitialCwnd {
		t.Skipf("cwnd did not grow beyond IW (%v); cannot observe reset", cwndAfterBatch)
	}
	if got := f.Sender.Cwnd(); got > cwndAfterBatch/2 && got > 2*DefaultInitialCwnd {
		t.Errorf("cwnd after idle = %v, want reset near IW (was %v)", got, cwndAfterBatch)
	}
}

func TestRenoWindowDynamics(t *testing.T) {
	// Unit-test the CC in isolation with a fake window.
	w := &fakeWindow{cwnd: 10, ssthresh: 8}
	r := NewReno()
	r.OnAck(w, AckEvent{AckedPackets: 1, InSlowStart: false})
	if want := 10.1; !near(w.cwnd, want, 1e-9) {
		t.Errorf("CA ack: cwnd = %v, want %v", w.cwnd, want)
	}
	w2 := &fakeWindow{cwnd: 4, ssthresh: 100}
	r.OnAck(w2, AckEvent{AckedPackets: 2, InSlowStart: true})
	if w2.cwnd != 6 {
		t.Errorf("SS ack: cwnd = %v, want 6", w2.cwnd)
	}
	r.OnPacketLoss(w, 0)
	if !near(w.cwnd, 5.05, 1e-9) || !near(w.ssthresh, 5.05, 1e-9) {
		t.Errorf("loss: cwnd=%v ssthresh=%v, want both 5.05", w.cwnd, w.ssthresh)
	}
	r.OnTimeout(w, 0)
	if w.cwnd != 1 {
		t.Errorf("timeout: cwnd = %v, want 1", w.cwnd)
	}
	w3 := &fakeWindow{cwnd: 2.5}
	r.OnPacketLoss(w3, 0)
	if w3.cwnd != MinCwnd {
		t.Errorf("loss floor: cwnd = %v, want %v", w3.cwnd, MinCwnd)
	}
}

type fakeWindow struct {
	cwnd, ssthresh float64
	srtt           sim.Time
}

func (f *fakeWindow) Cwnd() float64         { return f.cwnd }
func (f *fakeWindow) SetCwnd(c float64)     { f.cwnd = c }
func (f *fakeWindow) Ssthresh() float64     { return f.ssthresh }
func (f *fakeWindow) SetSsthresh(s float64) { f.ssthresh = s }
func (f *fakeWindow) SRTT() sim.Time        { return f.srtt }
func (f *fakeWindow) InSlowStart() bool     { return f.cwnd < f.ssthresh }

func near(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func TestPFabricPrioTag(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{Prio: PFabricPrio})
	var prios []int64
	net.Forward.AddTap(func(_ sim.Time, p *netsim.Packet) {
		if !p.Ack {
			prios = append(prios, p.Prio)
		}
	})
	f.Sender.Write(200_000)
	eng.RunUntil(5 * sim.Second)
	if len(prios) == 0 {
		t.Fatal("no data packets observed")
	}
	if prios[0] != 200_000 {
		t.Errorf("first packet prio = %d, want 200000 (full remaining)", prios[0])
	}
	last := prios[len(prios)-1]
	if last >= prios[0] {
		t.Errorf("priority did not decrease: first %d, last %d", prios[0], last)
	}
}

func TestPIASBandDemotion(t *testing.T) {
	band := PIASBands([]int64{100_000, 1_000_000})
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{
		Band: band,
	})
	maxBand := 0
	net.Forward.AddTap(func(_ sim.Time, p *netsim.Packet) {
		if !p.Ack && p.Band > maxBand {
			maxBand = p.Band
		}
	})
	f.Sender.Write(2_000_000)
	eng.RunUntil(10 * sim.Second)
	if maxBand != 2 {
		t.Errorf("max band = %d, want 2 (demoted past both thresholds)", maxBand)
	}
}

func TestSenderValidation(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	for name, fn := range map[string]func(){
		"nil-cc": func() {
			NewSender(eng, net.Left[0], 99, net.Right[0].ID(), nil, Config{})
		},
		"bad-mss": func() {
			NewSender(eng, net.Left[0], 98, net.Right[0].ID(), NewReno(), Config{MSS: 99999})
		},
		"zero-write": func() {
			f := NewFlow(eng, 97, net.Left[0], net.Right[0], NewReno(), Config{})
			f.Sender.Write(0)
		},
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
