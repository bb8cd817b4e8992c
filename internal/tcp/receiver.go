package tcp

import (
	"fmt"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
)

// Receiver is one TCP flow's receiving side: it tracks the in-order edge,
// buffers out-of-order segments, and acknowledges every data packet with a
// cumulative ACK (echoing the data packet's send timestamp for RTT
// measurement and its ECN mark for DCTCP).
type Receiver struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    netsim.FlowID
	replyTo netsim.NodeID

	rcvNxt     int64
	outOfOrder map[int64]int // seq -> payload length

	bytesReceived int64 // cumulative in-order bytes delivered
	acksSent      int64

	// Delayed-ACK state (EnableDelayedAck): at most one data packet is
	// held unacknowledged; the second arrival or the timer flushes.
	delAck        bool
	delAckTimer   *sim.Timer
	delAckTimeout sim.Time
	pendingAck    bool
	pendingEcho   sim.Time
	pendingECN    bool
}

// NewReceiver creates the receiving endpoint for flow on host, sending ACKs
// back to replyTo, and attaches it to the host.
func NewReceiver(eng *sim.Engine, host *netsim.Host, flow netsim.FlowID, replyTo netsim.NodeID) *Receiver {
	r := &Receiver{
		eng:        eng,
		host:       host,
		flow:       flow,
		replyTo:    replyTo,
		outOfOrder: make(map[int64]int),
	}
	host.Attach(flow, r)
	return r
}

// EnableDelayedAck switches the receiver to RFC 1122-style delayed ACKs:
// every second data packet is acknowledged immediately, a lone packet after
// the given timeout. Cumulative ACKs then regularly cover two packets,
// exercising Algorithm 1's num_acks > 1 path. Must be called before
// traffic starts.
func (r *Receiver) EnableDelayedAck(timeout sim.Time) {
	if timeout <= 0 {
		panic("tcp: delayed-ACK timeout must be positive")
	}
	r.delAck = true
	r.delAckTimer = sim.NewTimer(r.eng, func(*sim.Engine) { r.flushDelayedAck() })
	// Arm lazily; store the timeout in the timer by resetting on use.
	r.delAckTimeout = timeout
}

// BytesReceived returns the cumulative in-order bytes delivered.
func (r *Receiver) BytesReceived() int64 { return r.bytesReceived }

// AcksSent returns how many ACKs the receiver has emitted.
func (r *Receiver) AcksSent() int64 { return r.acksSent }

// HandlePacket implements netsim.Endpoint.
func (r *Receiver) HandlePacket(_ *sim.Engine, p *netsim.Packet) {
	if p.Ack {
		panic(fmt.Sprintf("tcp: receiver for flow %d received an ACK", r.flow))
	}
	echoTS := p.SentAt
	switch {
	case p.Seq == r.rcvNxt:
		r.rcvNxt += int64(p.Payload)
		// Pull any buffered continuation forward.
		for {
			n, ok := r.outOfOrder[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.outOfOrder, r.rcvNxt)
			r.rcvNxt += int64(n)
		}
	case p.Seq > r.rcvNxt:
		r.outOfOrder[p.Seq] = p.Payload
		echoTS = 0 // out-of-order: the dup ACK must not produce an RTT sample
	default:
		// Duplicate of already-delivered data (spurious retransmit).
		echoTS = 0
	}
	r.bytesReceived = r.rcvNxt

	if r.delAck && p.Seq == r.rcvNxt-int64(p.Payload) && len(r.outOfOrder) == 0 {
		// In-order delivery with nothing missing: delay the ACK.
		if r.pendingAck {
			// Second packet: ACK both now.
			r.pendingAck = false
			r.delAckTimer.Stop()
			r.sendAck(echoTS, r.pendingECN || p.ECNMarked)
		} else {
			r.pendingAck = true
			r.pendingEcho = echoTS
			r.pendingECN = p.ECNMarked
			r.delAckTimer.Reset(r.delAckTimeout)
		}
		return
	}
	// Out-of-order, duplicate, or delayed ACKs disabled: ACK at once
	// (flushing anything pending first so ACKs stay ordered).
	if r.pendingAck {
		r.flushDelayedAck()
	}
	r.sendAck(echoTS, p.ECNMarked)
}

func (r *Receiver) flushDelayedAck() {
	if !r.pendingAck {
		return
	}
	r.pendingAck = false
	r.delAckTimer.Stop()
	r.sendAck(r.pendingEcho, r.pendingECN)
}

// hot
func (r *Receiver) sendAck(echoTS sim.Time, ecnEcho bool) {
	r.acksSent++
	p := r.host.NewPacket() // zeroed, so assignment matches a fresh literal
	p.Flow = r.flow
	p.Dst = r.replyTo
	p.Ack = true
	p.AckNo = r.rcvNxt
	p.SentAt = echoTS
	p.ECNEcho = ecnEcho
	r.host.Send(p)
}
