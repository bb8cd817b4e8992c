package tcp

import (
	"fmt"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// Config tunes a Sender. The zero value is usable: every field has a
// sensible default applied by NewSender.
type Config struct {
	// MSS is the payload bytes per data packet (default netsim.MaxPayload).
	MSS int
	// InitialCwnd is the initial window in packets (default 10).
	InitialCwnd float64
	// MaxCwnd caps the window in packets (default 1e6).
	MaxCwnd float64
	// MinRTO floors the retransmission timeout (default 10ms, a
	// datacenter-ish value; Linux's 200ms would dominate the simulated
	// timescales).
	MinRTO sim.Time
	// ECN makes data packets ECN-capable (required for DCTCP).
	ECN bool
	// SlowStartAfterIdle resets cwnd to InitialCwnd when the flow
	// resumes after an idle period longer than the RTO, matching
	// Linux's default behaviour between DNN iterations.
	// Use the DisableSlowStartAfterIdle field to turn it off.
	DisableSlowStartAfterIdle bool
	// Pacing spreads packet emissions at cwnd/SRTT × PacingGain instead
	// of bursting the whole window, as modern kernels (fq pacing) do.
	// Pacing smooths queue occupancy and reduces slow-start burst loss.
	Pacing bool
	// PacingGain scales the pacing rate above the nominal cwnd/SRTT
	// (default 1.25, Linux's congestion-avoidance gain).
	PacingGain float64
	// DelayedAck enables RFC 1122-style delayed ACKs on the receiver
	// (applied by NewFlow): cumulative ACKs then routinely cover two
	// packets, exercising Algorithm 1's num_acks > 1 path.
	DelayedAck bool
	// DelAckTimeout bounds how long a lone packet waits for its ACK
	// (default 500µs; Linux uses up to 40ms, far too long for the
	// microsecond RTTs simulated here).
	DelAckTimeout sim.Time
	// Prio computes the packet priority at emission time (pFabric's
	// remaining-size tag). Nil leaves priorities at zero.
	Prio func(s *Sender) int64
	// Band computes the strict-priority band at emission time (PIAS's
	// MLFQ tag). Nil leaves bands at zero.
	Band func(s *Sender) int
	// Trace receives the sender's telemetry: cwnd samples on ACKs,
	// retransmits, RTO firings, and fast-recovery entries. Nil (the
	// default) disables emission at near-zero cost.
	Trace *telemetry.Recorder
}

func (c *Config) applyDefaults() {
	if c.MSS == 0 {
		c.MSS = netsim.MaxPayload
	}
	if c.MSS <= 0 || c.MSS > netsim.MaxPayload {
		panic(fmt.Sprintf("tcp: invalid MSS %d", c.MSS))
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = DefaultInitialCwnd
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 1e6
	}
	if c.MinRTO == 0 {
		c.MinRTO = 10 * sim.Millisecond
	}
	if c.PacingGain == 0 {
		c.PacingGain = 1.25
	}
	if c.PacingGain < 0 {
		panic(fmt.Sprintf("tcp: negative pacing gain %v", c.PacingGain))
	}
}

// Stats are cumulative sender counters.
type Stats struct {
	PacketsSent    int64
	Retransmits    int64
	Timeouts       int64
	FastRecoveries int64
	BytesAcked     int64
}

// Sender is one TCP flow's sending side. The application supplies data with
// Write; Drained fires when everything written so far has been
// acknowledged, which is how the DNN job loop (compute -> communicate ->
// compute) is driven.
type Sender struct {
	eng  *sim.Engine
	host *netsim.Host
	flow netsim.FlowID
	dst  netsim.NodeID
	cc   CongestionControl
	cfg  Config

	cwnd     float64
	ssthresh float64

	sndUna   int64 // lowest unacknowledged byte
	sndNxt   int64 // next byte to transmit
	appLimit int64 // total bytes written by the application

	dupAcks       int
	inRecovery    bool
	recoverSeq    int64
	recoveryExtra float64 // window inflation from dup ACKs during recovery
	recoveryAcked int64   // bytes advanced by partial ACKs, reported on exit

	srtt, rttvar, rto sim.Time
	rtoTimer          *sim.Timer

	lastActivity sim.Time
	iterStart    int64 // first byte of the current Write batch

	paceTimer *sim.Timer
	nextSend  sim.Time

	ackRemainder int64 // sub-MSS ack bytes carried between ACKs

	drained func(now sim.Time)
	onAck   func(ev AckEvent)

	stats Stats
}

// NewSender creates a sender for flow on host, destined for dst, and
// attaches it to the host so returning ACKs reach it.
func NewSender(eng *sim.Engine, host *netsim.Host, flow netsim.FlowID, dst netsim.NodeID, cc CongestionControl, cfg Config) *Sender {
	cfg.applyDefaults()
	if cc == nil {
		panic("tcp: nil congestion control")
	}
	s := &Sender{
		eng:      eng,
		host:     host,
		flow:     flow,
		dst:      dst,
		cc:       cc,
		cfg:      cfg,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.MaxCwnd,
		rto:      cfg.MinRTO,
	}
	s.rtoTimer = sim.NewTimer(eng, s.onRTO)
	if cfg.Pacing {
		s.paceTimer = sim.NewTimer(eng, func(e *sim.Engine) { s.trySend(e.Now()) })
	}
	host.Attach(flow, s)
	cc.OnInit(s)
	return s
}

// Flow returns the sender's flow ID.
func (s *Sender) Flow() netsim.FlowID { return s.flow }

// CC returns the congestion-control algorithm in use.
func (s *Sender) CC() CongestionControl { return s.cc }

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() Stats { return s.stats }

// Cwnd implements Window.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SetCwnd implements Window, clamping to [MinCwnd/2, MaxCwnd]. The lower
// clamp permits cwnd=1 after a timeout but nothing pathological.
func (s *Sender) SetCwnd(c float64) {
	if c < 1 {
		c = 1
	}
	if c > s.cfg.MaxCwnd {
		c = s.cfg.MaxCwnd
	}
	s.cwnd = c
}

// Ssthresh implements Window.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// SetSsthresh implements Window.
func (s *Sender) SetSsthresh(v float64) {
	if v < MinCwnd {
		v = MinCwnd
	}
	s.ssthresh = v
}

// SRTT implements Window.
func (s *Sender) SRTT() sim.Time { return s.srtt }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() sim.Time { return s.rto }

// InSlowStart implements Window.
func (s *Sender) InSlowStart() bool { return s.cwnd < s.ssthresh }

// Remaining returns the unacknowledged portion of the application's demand,
// pFabric's "remaining flow size".
func (s *Sender) Remaining() int64 { return s.appLimit - s.sndUna }

// BatchBytesSent returns the bytes transmitted (not necessarily
// acknowledged) from the current Write batch, the quantity PIAS-style
// byte-count taggers demote on.
func (s *Sender) BatchBytesSent() int64 { return s.sndNxt - s.iterStart }

// TotalBytesAcked returns the lifetime acknowledged byte count.
func (s *Sender) TotalBytesAcked() int64 { return s.sndUna }

// Drained registers fn to run whenever all written data has been
// acknowledged. It replaces any previous callback.
func (s *Sender) Drained(fn func(now sim.Time)) { s.drained = fn }

// OnAckHook registers an observer invoked for every processed cumulative
// ACK (after CC). Tests and MLTCP's parameter learner use it.
func (s *Sender) OnAckHook(fn func(ev AckEvent)) { s.onAck = fn }

// Write appends n bytes of application data and starts transmitting as the
// window allows. Writing while previous data is still in flight simply
// extends the demand.
func (s *Sender) Write(n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("tcp: Write of %d bytes", n))
	}
	now := s.eng.Now()
	if s.sndUna == s.appLimit {
		// Fresh batch after a drain: new iteration for tagging.
		s.iterStart = s.appLimit
		if !s.cfg.DisableSlowStartAfterIdle && now-s.lastActivity > s.rto && s.appLimit > 0 {
			// Linux's slow-start-after-idle: window restarts, the
			// ssthresh memory is kept.
			s.cwnd = s.cfg.InitialCwnd
		}
	}
	s.appLimit += n
	s.trySend(now)
}

func (s *Sender) outstanding() float64 {
	return float64(s.sndNxt-s.sndUna) / float64(s.cfg.MSS)
}

func (s *Sender) trySend(now sim.Time) {
	window := s.cwnd + s.recoveryExtra
	for s.sndNxt < s.appLimit && s.outstanding()+1 <= window {
		if s.cfg.Pacing && s.srtt > 0 {
			if now < s.nextSend {
				if !s.paceTimer.Armed() {
					s.paceTimer.Reset(s.nextSend - now)
				}
				return
			}
			// Space emissions so the window drains over one SRTT
			// (divided by the gain).
			interval := s.srtt.Div(s.cfg.PacingGain * s.cwnd)
			s.nextSend = now + interval
		}
		payload := int64(s.cfg.MSS)
		if rest := s.appLimit - s.sndNxt; rest < payload {
			payload = rest
		}
		s.emit(now, s.sndNxt, int(payload), false)
		s.sndNxt += payload
	}
}

// hot
func (s *Sender) emit(now sim.Time, seq int64, payload int, isRetx bool) {
	p := s.host.NewPacket() // zeroed, so assignment matches a fresh literal
	p.Flow = s.flow
	p.Dst = s.dst
	p.Seq = seq
	p.Payload = payload
	p.ECNCapable = s.cfg.ECN
	p.SentAt = now
	if isRetx {
		p.SentAt = 0 // Karn: no RTT sample from retransmits
		s.stats.Retransmits++
		s.cfg.Trace.Retransmit(now, int(s.flow), seq)
	}
	if s.cfg.Prio != nil {
		p.Prio = s.cfg.Prio(s)
	}
	if s.cfg.Band != nil {
		p.Band = s.cfg.Band(s)
	}
	s.stats.PacketsSent++
	s.lastActivity = now
	s.host.Send(p)
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Reset(s.rto)
	}
}

// HandlePacket implements netsim.Endpoint; the sender receives only ACKs.
func (s *Sender) HandlePacket(eng *sim.Engine, p *netsim.Packet) {
	if !p.Ack {
		panic(fmt.Sprintf("tcp: sender for flow %d received a data packet", s.flow))
	}
	now := eng.Now()
	switch {
	case p.AckNo > s.sndUna:
		s.processAdvance(now, p)
	case p.AckNo == s.sndUna && s.sndNxt > s.sndUna:
		s.processDupAck(now)
	default:
		// Stale ACK: ignore.
	}
}

func (s *Sender) processAdvance(now sim.Time, p *netsim.Packet) {
	acked := p.AckNo - s.sndUna
	s.dupAcks = 0

	var rttSample sim.Time
	if p.SentAt > 0 && !s.inRecovery {
		rttSample = now - p.SentAt
		s.updateRTT(rttSample)
	}

	wasSS := s.InSlowStart()

	if s.inRecovery {
		if p.AckNo >= s.recoverSeq {
			// Full ACK: leave recovery, deflate to ssthresh. Bytes
			// that partial ACKs advanced during recovery are
			// reported to the CC now, so byte accounting (and
			// MLTCP's bytes_ratio) stays exact across recovery.
			s.inRecovery = false
			s.recoveryExtra = 0
			s.SetCwnd(s.ssthresh)
			s.sndUna = p.AckNo
		} else {
			// Partial ACK (NewReno): retransmit the next hole,
			// stay in recovery; defer CC reporting to exit.
			s.recoveryAcked += acked
			s.sndUna = p.AckNo
			s.retransmitHead(now)
			s.rtoTimer.Reset(s.rto)
			s.trySend(now)
			return
		}
	} else {
		s.sndUna = p.AckNo
	}
	// Flush bytes deferred by partial ACKs — set on recovery exit above,
	// or stranded by an RTO that aborted recovery.
	acked += s.recoveryAcked
	s.recoveryAcked = 0

	s.stats.BytesAcked += acked
	numAcks := int((acked + s.ackRemainder) / int64(s.cfg.MSS))
	s.ackRemainder = (acked + s.ackRemainder) % int64(s.cfg.MSS)

	ev := AckEvent{
		Now:          now,
		AckedBytes:   acked,
		AckedPackets: numAcks,
		RTT:          rttSample,
		ECNEcho:      p.ECNEcho,
		InSlowStart:  wasSS,
	}
	s.cc.OnAck(s, ev)
	if s.onAck != nil {
		s.onAck(ev)
	}
	s.cfg.Trace.CwndUpdate(now, int(s.flow), s.cwnd, s.ssthresh, s.srtt)

	if s.sndUna == s.appLimit {
		s.rtoTimer.Stop()
		s.lastActivity = now
		if s.drained != nil {
			s.drained(now)
		}
	} else {
		s.rtoTimer.Reset(s.rto)
	}
	s.trySend(now)
}

func (s *Sender) processDupAck(now sim.Time) {
	s.dupAcks++
	if s.inRecovery {
		// Window inflation: each dup ACK signals a departure.
		s.recoveryExtra++
		s.trySend(now)
		return
	}
	if s.dupAcks == 3 {
		s.stats.FastRecoveries++
		s.inRecovery = true
		s.recoverSeq = s.sndNxt
		s.cc.OnPacketLoss(s, now)
		s.cfg.Trace.FastRecovery(now, int(s.flow), s.ssthresh, s.cwnd)
		s.recoveryExtra = 3
		s.retransmitHead(now)
		s.rtoTimer.Reset(s.rto)
	}
}

func (s *Sender) retransmitHead(now sim.Time) {
	payload := int64(s.cfg.MSS)
	if rest := s.appLimit - s.sndUna; rest < payload {
		payload = rest
	}
	if payload <= 0 {
		return
	}
	s.emit(now, s.sndUna, int(payload), true)
}

func (s *Sender) onRTO(e *sim.Engine) {
	if s.sndUna == s.appLimit {
		return // nothing outstanding
	}
	now := e.Now()
	s.stats.Timeouts++
	s.dupAcks = 0
	s.inRecovery = false
	s.recoveryExtra = 0
	s.cc.OnTimeout(s, now)
	// Go-back-N: rewind and resend from the hole.
	s.sndNxt = s.sndUna
	s.rto = s.rto << 1
	if max := 60 * sim.Second; s.rto > max {
		s.rto = max
	}
	s.cfg.Trace.RTOFired(now, int(s.flow), s.rto, s.cwnd)
	s.trySend(now)
	if !s.rtoTimer.Armed() {
		s.rtoTimer.Reset(s.rto)
	}
}

// updateRTT implements RFC 6298 smoothing.
func (s *Sender) updateRTT(sample sim.Time) {
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
}
