package core

import (
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/telemetry"
)

// RatioSource supplies bytes_ratio as ACKs arrive: either a Tracker with
// known parameters or a Learner that is still inferring them.
type RatioSource interface {
	// OnAck records a delivery and returns the current bytes_ratio.
	OnAck(now sim.Time, ackedBytes int64) float64
}

// MLTCP augments a base congestion-control algorithm per the paper: during
// congestion avoidance, whatever window increment the base algorithm makes
// is scaled by F(bytes_ratio). For Reno this yields exactly Equation 1,
//
//	cwnd ← cwnd + F(bytes_ratio) × num_acks/cwnd
//
// and the same wrapping applies to CUBIC or DCTCP growth, matching §6's
// note that "other congestion control schemes are augmented in a similar
// way". Slow start and all decrease logic (loss, timeout, ECN reaction)
// are left untouched — MLTCP only modulates how aggressively a flow climbs.
type MLTCP struct {
	base tcp.CongestionControl
	agg  AggFunc
	src  RatioSource

	lastRatio float64

	rec  *telemetry.Recorder
	flow int
}

// Wrap builds an MLTCP-augmented version of base. src is the flow's
// Tracker (known TOTAL_BYTES/COMP_TIME) or Learner (auto-detected).
func Wrap(base tcp.CongestionControl, agg AggFunc, src RatioSource) *MLTCP {
	if base == nil {
		panic("core: nil base congestion control")
	}
	if agg.Eval == nil {
		panic("core: aggressiveness function with nil Eval")
	}
	if src == nil {
		panic("core: nil ratio source")
	}
	return &MLTCP{base: base, agg: agg, src: src}
}

// NewReno returns MLTCP-Reno with the paper's default linear F and known
// iteration parameters — the configuration evaluated throughout the paper.
func NewReno(totalBytes int64, compTime sim.Time) *MLTCP {
	return Wrap(tcp.NewReno(), Default(), NewTracker(totalBytes, compTime))
}

// Name implements tcp.CongestionControl.
func (m *MLTCP) Name() string { return "mltcp-" + m.base.Name() }

// Base returns the wrapped algorithm.
func (m *MLTCP) Base() tcp.CongestionControl { return m.base }

// BytesRatio returns the most recent bytes_ratio (for traces and tests).
func (m *MLTCP) BytesRatio() float64 { return m.lastRatio }

// Instrument attaches a telemetry recorder: every ACK's aggressiveness
// evaluation (bytes_ratio, F(bytes_ratio)) is emitted as a rate-limited
// KindAgg event tagged with the given flow ID. A nil recorder disables
// emission.
func (m *MLTCP) Instrument(rec *telemetry.Recorder, flow int) {
	m.rec = rec
	m.flow = flow
}

// OnInit implements tcp.CongestionControl.
func (m *MLTCP) OnInit(w tcp.Window) { m.base.OnInit(w) }

// OnAck implements tcp.CongestionControl. The tracker is fed on every ACK
// (bytes delivered during slow start count toward the iteration too), but
// only the congestion-avoidance increment is scaled: Algorithm 1 hooks the
// congestion_avoidance path, and scaling slow start's geometric growth
// would change behaviour the paper leaves alone.
func (m *MLTCP) OnAck(w tcp.Window, ev tcp.AckEvent) {
	ratio := m.src.OnAck(ev.Now, ev.AckedBytes)
	if ratio < 0 {
		ratio = 0
	} else if ratio > 1 {
		ratio = 1
	}
	m.lastRatio = ratio
	if m.rec.Enabled() {
		m.rec.AggEval(ev.Now, m.flow, ratio, m.agg.Eval)
	}

	if ev.InSlowStart {
		m.base.OnAck(w, ev)
		return
	}
	before := w.Cwnd()
	m.base.OnAck(w, ev)
	after := w.Cwnd()
	if after > before {
		w.SetCwnd(before + m.agg.Eval(ratio)*(after-before))
	}
}

// OnPacketLoss implements tcp.CongestionControl.
func (m *MLTCP) OnPacketLoss(w tcp.Window, now sim.Time) { m.base.OnPacketLoss(w, now) }

// OnTimeout implements tcp.CongestionControl.
func (m *MLTCP) OnTimeout(w tcp.Window, now sim.Time) { m.base.OnTimeout(w, now) }
