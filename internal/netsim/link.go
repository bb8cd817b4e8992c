package netsim

import (
	"fmt"

	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// LinkStats are cumulative counters for one link.
type LinkStats struct {
	PacketsSent    int64
	PacketsDropped int64
	PacketsLost    int64 // random wire loss (LossProb), distinct from queue drops
	BytesSent      int64
}

// Link is a unidirectional link: packets entering via Send are queued by the
// discipline, serialized one at a time at Rate, and delivered to the
// destination Receiver after the propagation Delay. An optional i.i.d. loss
// probability models a lossy wire for the §5 fairness experiment.
type Link struct {
	eng   *sim.Engine
	name  string
	rate  units.Rate
	delay sim.Time
	queue Queue
	dst   Receiver

	// LossProb is the probability that a serialized packet is lost on
	// the wire. Requires a non-nil RNG when positive.
	LossProb float64
	// JitterStd adds zero-mean Gaussian jitter to each packet's
	// propagation delay (|delay + noise|, floored at zero), modeling
	// the RTT variation §3.1's requirement (i) says the aggressiveness
	// function's range must absorb. Arrival order is preserved: a FIFO
	// link never reorders, so jittered arrivals are clamped monotone.
	JitterStd sim.Time
	// RNG drives random loss and jitter; per-link so streams are
	// independent.
	RNG *sim.RNG

	busy        bool
	lastArrival sim.Time
	stats       LinkStats
	taps        []Tap
	rec         *telemetry.Recorder

	pool    *PacketPool // shared terminal-event recycler (nil: no recycling)
	tx      txDone      // the one in-flight serialization-complete handler
	freeDel *delivery   // free list of propagation-delivery handlers

	// txSize and txTime memoize the last serialization time: packet
	// sizes repeat (MSS data, header-only ACKs), and the zero pair is
	// already correct because a zero-byte packet serializes in zero time.
	txSize int
	txTime sim.Time
}

// txDone is the pre-bound serialization-complete handler. A link
// serializes one packet at a time (guarded by busy), so a single record
// embedded in the Link replaces the closure the old code allocated per
// transmission.
type txDone struct {
	l *Link
	p *Packet
}

// HandleEvent implements sim.EventHandler.
func (t *txDone) HandleEvent(e *sim.Engine) {
	p := t.p
	t.p = nil
	t.l.finishTransmission(e, p)
}

// delivery carries one packet across the propagation delay. Multiple
// deliveries are in flight at once (the wire is a pipeline), so these are
// free-listed per link rather than embedded.
type delivery struct {
	l    *Link
	p    *Packet
	next *delivery
}

// HandleEvent implements sim.EventHandler. The record is recycled before
// dispatching: the engine has already released the event, so nothing
// references d, and the receive path may immediately reuse it.
//
// hot
func (d *delivery) HandleEvent(e *sim.Engine) {
	l, p := d.l, d.p
	d.p = nil
	d.next = l.freeDel
	l.freeDel = d
	l.dst.Receive(e, p)
}

// Tap observes every packet the link finishes serializing (before any
// random loss), with the time serialization completed. Bandwidth monitors
// attach here.
type Tap func(now sim.Time, p *Packet)

// NewLink creates a link feeding dst. The queue discipline must not be
// shared between links.
func NewLink(eng *sim.Engine, name string, rate units.Rate, delay sim.Time, queue Queue, dst Receiver) *Link {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: link %s with non-positive rate", name))
	}
	if delay < 0 {
		panic(fmt.Sprintf("netsim: link %s with negative delay", name))
	}
	l := &Link{eng: eng, name: name, rate: rate, delay: delay, queue: queue, dst: dst}
	l.tx.l = l
	queue.SetDropCallback(func(p *Packet) {
		l.stats.PacketsDropped++
		l.rec.Drop(l.eng.Now(), l.name, int(p.Flow), l.queue.Bytes())
		l.pool.Put(p) // a dropped packet's terminal event
	})
	return l
}

// SetPool attaches the topology's packet recycler: packets dropped by the
// queue or lost on the wire are returned to it. Nil (the default) leaves
// them to the garbage collector.
func (l *Link) SetPool(pp *PacketPool) { l.pool = pp }

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Rate returns the link's serialization rate.
func (l *Link) Rate() units.Rate { return l.rate }

// Delay returns the link's propagation delay.
func (l *Link) Delay() sim.Time { return l.delay }

// Queue exposes the link's queue discipline (read-mostly; used by tests and
// monitors).
func (l *Link) Queue() Queue { return l.queue }

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// AddTap registers an observer for serialized packets.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetTelemetry attaches a recorder: queue drops and ECN marks on this link
// are emitted as events (and counted in the recorder's registry). A nil
// recorder detaches.
func (l *Link) SetTelemetry(rec *telemetry.Recorder) { l.rec = rec }

// Send implements Receiver so that links can be targets of other components
// directly; it enqueues the packet and kicks serialization if idle.
func (l *Link) Send(p *Packet) {
	wasMarked := p.ECNMarked
	if !l.queue.Enqueue(p) {
		return // dropped; counted via the queue's callback
	}
	if l.rec.Enabled() && p.ECNMarked && !wasMarked {
		l.rec.ECNMark(l.eng.Now(), l.name, int(p.Flow), l.queue.Bytes())
	}
	if !l.busy {
		l.startTransmission()
	}
}

// Receive implements Receiver.
func (l *Link) Receive(_ *sim.Engine, p *Packet) { l.Send(p) }

// hot
func (l *Link) startTransmission() {
	p := l.queue.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	if size := p.WireSize(); size != l.txSize {
		l.txSize, l.txTime = size, l.rate.TransmissionTime(int64(size))
	}
	l.tx.p = p
	l.eng.AfterHandler(l.txTime, &l.tx)
}

// hot
func (l *Link) finishTransmission(e *sim.Engine, p *Packet) {
	l.stats.PacketsSent++
	l.stats.BytesSent += int64(p.WireSize())
	for _, tap := range l.taps {
		tap(e.Now(), p)
	}
	if l.LossProb > 0 && l.RNG != nil && l.RNG.Float64() < l.LossProb {
		l.stats.PacketsLost++
		l.pool.Put(p) // lost on the wire: terminal event
	} else {
		delay := l.delay
		if l.JitterStd > 0 && l.RNG != nil {
			delay = l.RNG.NormDuration(l.delay, l.JitterStd, 0)
		}
		arrival := e.Now() + delay
		if arrival <= l.lastArrival {
			arrival = l.lastArrival + 1
		}
		l.lastArrival = arrival
		d := l.freeDel
		if d == nil {
			d = &delivery{l: l}
		} else {
			l.freeDel = d.next
			d.next = nil
		}
		d.p = p
		e.AtHandler(arrival, d)
	}
	l.startTransmission()
}
