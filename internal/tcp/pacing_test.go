package tcp

import (
	"mltcp/internal/units"
	"testing"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
)

func TestPacingTransfersAllBytes(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{Pacing: true})
	const total = 8_000_000
	done := false
	f.Sender.Drained(func(sim.Time) { done = true })
	f.Sender.Write(total)
	eng.RunUntil(30 * sim.Second)
	if !done || f.Receiver.BytesReceived() != total {
		t.Fatalf("paced transfer incomplete: %d/%d", f.Receiver.BytesReceived(), total)
	}
}

func TestPacingReducesBurstLossAfterIdle(t *testing.T) {
	// The scenario pacing exists for: a connection resumes after a short
	// compute phase with a large inherited window — 1ms after the drain,
	// below MinRTO's 10ms floor, so slow-start-after-idle cannot reset
	// it. Unpaced, the whole window bursts into a shallow queue at the
	// edge rate and overflows; paced, it is spread over one SRTT.
	// Slow-start overshoot loss in the *first* batch is identical either
	// way — compare retransmits accumulated after the second batch
	// begins.
	run := func(pacing bool) int64 {
		eng := sim.New()
		// A long-RTT path (BDP ~85 packets) with a 40-packet buffer:
		// the inherited window far exceeds what the queue can absorb
		// in one burst, but paced over an SRTT it fits.
		net := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
			HostPairs:       1,
			HostRate:        1 * units.Gbps,
			BottleneckRate:  100 * units.Mbps,
			HostDelay:       10 * sim.Microsecond,
			BottleneckDelay: 5 * sim.Millisecond,
			BottleneckQueue: func() netsim.Queue { return netsim.NewDropTail(40 * netsim.DefaultMTU) },
		})
		f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(),
			Config{Pacing: pacing})
		var afterFirst int64 = -1
		batches := 0
		f.Sender.Drained(func(now sim.Time) {
			batches++
			if batches == 1 {
				afterFirst = f.Sender.Stats().Retransmits
				eng.After(sim.Millisecond, func(*sim.Engine) {
					inherited := f.Sender.Cwnd()
					f.Sender.Write(2_000_000)
					if f.Sender.Cwnd() != inherited {
						t.Errorf("pacing=%v: window reset on resume, %v -> %v", pacing, inherited, f.Sender.Cwnd())
					}
				})
			}
		})
		f.Sender.Write(2_000_000)
		eng.RunUntil(20 * sim.Second)
		if batches < 2 {
			t.Fatalf("pacing=%v: second batch incomplete", pacing)
		}
		return f.Sender.Stats().Retransmits - afterFirst
	}
	burst := run(false)
	paced := run(true)
	if paced >= burst {
		t.Errorf("pacing did not reduce post-idle burst retransmits: paced %d vs unpaced %d",
			paced, burst)
	}
}

func TestPacingSpacesEmissions(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{Pacing: true})
	var emissions []sim.Time
	net.Left[0].Uplink().AddTap(func(now sim.Time, p *netsim.Packet) {
		if !p.Ack {
			emissions = append(emissions, now)
		}
	})
	f.Sender.Write(3_000_000)
	eng.RunUntil(2 * sim.Second)
	if len(emissions) < 100 {
		t.Fatalf("only %d emissions", len(emissions))
	}
	// After SRTT is established, back-to-back same-instant bursts should
	// be rare: count emission pairs closer than 1µs in the steady
	// region.
	tight := 0
	for i := len(emissions) / 2; i < len(emissions)-1; i++ {
		if emissions[i+1]-emissions[i] < sim.Microsecond {
			tight++
		}
	}
	if frac := float64(tight) / float64(len(emissions)/2); frac > 0.2 {
		t.Errorf("%.0f%% of steady emissions are back-to-back; pacing ineffective", frac*100)
	}
}

func TestPacingValidation(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative gain did not panic")
		}
	}()
	NewFlow(eng, 9, net.Left[0], net.Right[0], NewReno(), Config{Pacing: true, PacingGain: -1})
}

func TestLinkJitterPreservesOrderAndDelivers(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	net.Forward.JitterStd = 50 * sim.Microsecond
	net.Forward.RNG = sim.NewRNG(7)
	// A FIFO link must never reorder even with jitter; the receiver's
	// spurious-retransmit count stays at zero if ordering held.
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	const total = 5_000_000
	done := false
	f.Sender.Drained(func(sim.Time) { done = true })
	f.Sender.Write(total)
	eng.RunUntil(30 * sim.Second)
	if !done || f.Receiver.BytesReceived() != total {
		t.Fatalf("jittered transfer incomplete: %d/%d", f.Receiver.BytesReceived(), total)
	}
}

func TestQueueMonitor(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	m := netsim.NewQueueMonitor(eng, net.Forward, 10*sim.Millisecond,
		100*sim.Millisecond, 2*sim.Second)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	f.Sender.Write(1 << 40)
	eng.RunUntil(2 * sim.Second)
	if len(m.Samples()) != 190 {
		t.Fatalf("samples = %d, want 190", len(m.Samples()))
	}
	if m.Max() == 0 {
		t.Error("queue never occupied under a saturating flow")
	}
	if m.Mean() <= 0 || m.Mean() > float64(m.Max()) {
		t.Errorf("mean %v outside (0, max %v]", m.Mean(), m.Max())
	}
}

func TestQueueMonitorValidation(t *testing.T) {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	for name, fn := range map[string]func(){
		"zero-interval": func() { netsim.NewQueueMonitor(eng, net.Forward, 0, 0, sim.Second) },
		"empty-window":  func() { netsim.NewQueueMonitor(eng, net.Forward, sim.Millisecond, sim.Second, sim.Second) },
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
