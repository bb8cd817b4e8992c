package core

import (
	"testing"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/units"
)

type fakeWindow struct {
	cwnd, ssthresh float64
}

func (f *fakeWindow) Cwnd() float64         { return f.cwnd }
func (f *fakeWindow) SetCwnd(c float64)     { f.cwnd = c }
func (f *fakeWindow) Ssthresh() float64     { return f.ssthresh }
func (f *fakeWindow) SetSsthresh(s float64) { f.ssthresh = s }
func (f *fakeWindow) SRTT() sim.Time        { return 0 }
func (f *fakeWindow) InSlowStart() bool     { return f.cwnd < f.ssthresh }

func TestMLTCPRenoImplementsEquationOne(t *testing.T) {
	// With ratio r, the CA increment must be F(r) * num_acks / cwnd.
	tr := NewTracker(1000, sim.Second)
	m := Wrap(tcp.NewReno(), Default(), tr)
	w := &fakeWindow{cwnd: 10, ssthresh: 5} // congestion avoidance

	// First ACK delivers 500 bytes: ratio 0.5, F = 1.125.
	m.OnAck(w, tcp.AckEvent{Now: sim.Millisecond, AckedBytes: 500, AckedPackets: 1})
	want := 10 + 1.125*1.0/10
	if !near(w.cwnd, want) {
		t.Errorf("cwnd = %v, want %v", w.cwnd, want)
	}
	if !near(m.BytesRatio(), 0.5) {
		t.Errorf("ratio = %v, want 0.5", m.BytesRatio())
	}

	// Second ACK completes the iteration's bytes: ratio 1, F = 2.
	before := w.cwnd
	m.OnAck(w, tcp.AckEvent{Now: 2 * sim.Millisecond, AckedBytes: 500, AckedPackets: 2})
	want = before + 2.0*2.0/before
	if !near(w.cwnd, want) {
		t.Errorf("cwnd = %v, want %v", w.cwnd, want)
	}
}

func TestMLTCPLeavesSlowStartAlone(t *testing.T) {
	tr := NewTracker(1000, sim.Second)
	m := Wrap(tcp.NewReno(), Default(), tr)
	w := &fakeWindow{cwnd: 4, ssthresh: 100}
	m.OnAck(w, tcp.AckEvent{Now: sim.Millisecond, AckedBytes: 900, AckedPackets: 2, InSlowStart: true})
	if w.cwnd != 6 {
		t.Errorf("slow-start cwnd = %v, want 6 (unscaled)", w.cwnd)
	}
	// But the tracker still saw the bytes.
	if !near(tr.BytesRatio(), 0.9) {
		t.Errorf("tracker ratio = %v, want 0.9", tr.BytesRatio())
	}
}

func TestMLTCPDecreaseUnmodified(t *testing.T) {
	m := NewReno(1000, sim.Second)
	w := &fakeWindow{cwnd: 10, ssthresh: 100}
	m.OnPacketLoss(w, 0)
	if !near(w.cwnd, 5) || !near(w.ssthresh, 5) {
		t.Errorf("loss: cwnd=%v ssthresh=%v, want 5/5", w.cwnd, w.ssthresh)
	}
	m.OnTimeout(w, 0)
	if w.cwnd != 1 {
		t.Errorf("timeout cwnd = %v, want 1", w.cwnd)
	}
}

func TestMLTCPName(t *testing.T) {
	if got := NewReno(1, sim.Second).Name(); got != "mltcp-reno" {
		t.Errorf("Name() = %q", got)
	}
	m := Wrap(tcp.NewCubic(), Default(), NewTracker(1, sim.Second))
	if got := m.Name(); got != "mltcp-cubic" {
		t.Errorf("Name() = %q", got)
	}
}

func TestWrapValidation(t *testing.T) {
	tr := NewTracker(1, sim.Second)
	for name, fn := range map[string]func(){
		"nil-base": func() { Wrap(nil, Default(), tr) },
		"nil-eval": func() { Wrap(tcp.NewReno(), AggFunc{}, tr) },
		"nil-src":  func() { Wrap(tcp.NewReno(), Default(), nil) },
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

// Integration: two MLTCP-Reno flows with different bytes_ratio compete on a
// packet-level bottleneck; the flow further along its iteration must claim
// more bandwidth — MLTCP's central mechanism (§3.1: "the flow closest to
// completing its iteration receives a larger share").
func TestMLTCPUnequalSharingByProgress(t *testing.T) {
	eng := sim.New()
	net := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       2,
		HostRate:        1 * units.Gbps,
		BottleneckRate:  200 * units.Mbps,
		HostDelay:       10 * sim.Microsecond,
		BottleneckDelay: 30 * sim.Microsecond,
	})
	const iterBytes = 40_000_000
	comp := 100 * sim.Millisecond

	// Flow A is pre-charged to appear 90% through its iteration; flow B
	// starts at zero. Both then send the same volume simultaneously.
	trA := NewTracker(iterBytes, comp)
	trA.OnAck(0, iterBytes*9/10)
	trB := NewTracker(iterBytes, comp)

	ccA := Wrap(tcp.NewReno(), Default(), trA)
	ccB := Wrap(tcp.NewReno(), Default(), trB)
	fA := tcp.NewFlow(eng, 1, net.Left[0], net.Right[0], ccA, tcp.Config{})
	fB := tcp.NewFlow(eng, 2, net.Left[1], net.Right[1], ccB, tcp.Config{})

	fA.Sender.Write(iterBytes / 10)
	fB.Sender.Write(iterBytes)
	eng.RunUntil(400 * sim.Millisecond)

	bA := float64(fA.Sender.TotalBytesAcked())
	bB := float64(fB.Sender.TotalBytesAcked())
	if bA == 0 || bB == 0 {
		t.Fatalf("no progress: A=%v B=%v", bA, bB)
	}
	// A (ratio ~0.9+, F~1.8-2) must outpace B (ratio starting 0,
	// F~0.25+) early on. Compare before A drains.
	perA := bA / (float64(iterBytes) / 10)
	perB := bB / float64(iterBytes)
	if perA <= perB {
		t.Errorf("high-ratio flow not favored: A progress %.2f vs B %.2f", perA, perB)
	}
}

// §5's traffic-class recommendation: a latency-sensitive flow running
// MLTCP with a constant high aggressiveness (F = 4 whatever its progress)
// acquires clearly more bandwidth than a plain Reno bulk flow, without
// starving it. Random loss on the bottleneck de-synchronizes the two
// flows' loss epochs; two deterministic drop-tail flows otherwise
// phase-lock into arbitrary winners regardless of their increase factors.
func TestLatencyClassAcquiresBandwidth(t *testing.T) {
	t.Parallel()
	eng := sim.New()
	net := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       2,
		HostRate:        5 * units.Gbps,
		BottleneckRate:  500 * units.Mbps,
		HostDelay:       10 * sim.Microsecond,
		BottleneckDelay: 30 * sim.Microsecond,
		BottleneckQueue: func() netsim.Queue {
			return netsim.NewDropTail(512 * netsim.DefaultMTU)
		},
	})
	net.Forward.LossProb = 0.001
	net.Forward.RNG = sim.NewRNG(5)
	latCC := Wrap(tcp.NewReno(), Linear(0, 4), NewTracker(1<<40, 400*sim.Millisecond))
	lat := tcp.NewFlow(eng, 1, net.Left[0], net.Right[0], latCC, tcp.Config{})
	bulk := tcp.NewFlow(eng, 2, net.Left[1], net.Right[1], tcp.NewReno(), tcp.Config{})
	lat.Sender.Write(1 << 40)
	bulk.Sender.Write(1 << 40)
	eng.RunUntil(30 * sim.Second)
	l := float64(lat.Sender.TotalBytesAcked())
	b := float64(bulk.Sender.TotalBytesAcked())
	if l < b*1.3 {
		t.Errorf("latency class got %.0f vs bulk %.0f; want clearly more", l, b)
	}
	if b < (l+b)*0.05 {
		t.Errorf("bulk starved: %.1f%% of total", b/(l+b)*100)
	}
}
