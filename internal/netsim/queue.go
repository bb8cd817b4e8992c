package netsim

// Queue is an egress queue discipline for a link. Enqueue reports whether
// the packet was accepted; a false return means it was dropped. Dequeue
// returns nil when empty. Disciplines with preemptive drop (pFabric) may
// evict an already-queued packet instead of the arriving one; such evictions
// are reported through the Dropped callback so link statistics stay
// accurate.
type Queue interface {
	Enqueue(p *Packet) bool
	Dequeue() *Packet
	Len() int
	Bytes() int64
	// SetDropCallback installs a function invoked for every packet the
	// discipline drops, whether arriving or evicted.
	SetDropCallback(func(*Packet))
}

// pktRing is a growable circular FIFO of packets. Unlike the slice-append /
// reslice idiom (`q.pkts = q.pkts[1:]`), the backing array is reused in
// place, so a steady-state queue performs zero allocations: capacity grows
// to the high-water mark once and every later push lands in a recycled
// slot. Capacity is kept a power of two so the wrap is a mask.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

// hot
func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

// hot
func (r *pktRing) pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) len() int { return r.n }

// DropTail is the classic FIFO queue with a byte capacity: arriving packets
// that do not fit are dropped.
type DropTail struct {
	capacity int64
	bytes    int64
	pkts     pktRing
	onDrop   func(*Packet)
}

// NewDropTail returns a FIFO queue holding at most capacity bytes.
func NewDropTail(capacity int64) *DropTail {
	if capacity <= 0 {
		panic("netsim: DropTail capacity must be positive")
	}
	return &DropTail{capacity: capacity}
}

// Enqueue implements Queue.
//
// hot
func (q *DropTail) Enqueue(p *Packet) bool {
	if q.bytes+int64(p.WireSize()) > q.capacity {
		q.drop(p)
		return false
	}
	q.pkts.push(p)
	q.bytes += int64(p.WireSize())
	return true
}

// Dequeue implements Queue.
//
// hot
func (q *DropTail) Dequeue() *Packet {
	p := q.pkts.pop()
	if p == nil {
		return nil
	}
	q.bytes -= int64(p.WireSize())
	return p
}

// Len implements Queue.
func (q *DropTail) Len() int { return q.pkts.len() }

// Bytes implements Queue.
func (q *DropTail) Bytes() int64 { return q.bytes }

// SetDropCallback implements Queue.
func (q *DropTail) SetDropCallback(fn func(*Packet)) { q.onDrop = fn }

func (q *DropTail) drop(p *Packet) {
	if q.onDrop != nil {
		q.onDrop(p)
	}
}

// ECNQueue wraps another queue with DCTCP-style threshold marking: a packet
// admitted while the instantaneous queue occupancy exceeds the threshold is
// marked (if ECN-capable).
type ECNQueue struct {
	Queue
	threshold int64
}

// NewECNQueue wraps inner with a marking threshold in bytes.
func NewECNQueue(inner Queue, threshold int64) *ECNQueue {
	if threshold <= 0 {
		panic("netsim: ECN threshold must be positive")
	}
	return &ECNQueue{Queue: inner, threshold: threshold}
}

// Enqueue implements Queue, marking over-threshold arrivals.
func (q *ECNQueue) Enqueue(p *Packet) bool {
	if p.ECNCapable && q.Bytes() >= q.threshold {
		p.ECNMarked = true
	}
	return q.Queue.Enqueue(p)
}

// PFabricQueue implements pFabric's switch behaviour: dequeue the packet
// with the lowest priority value (remaining flow size, so shortest-
// remaining-first), FIFO among equal priorities, and on overflow drop the
// packet with the highest priority value — possibly evicting a queued
// packet to admit a more urgent arrival.
type PFabricQueue struct {
	capacity int64
	bytes    int64
	pkts     []*Packet // kept in arrival order; scans are O(n), queues are small
	onDrop   func(*Packet)
}

// NewPFabricQueue returns a pFabric priority queue with a byte capacity.
func NewPFabricQueue(capacity int64) *PFabricQueue {
	if capacity <= 0 {
		panic("netsim: PFabricQueue capacity must be positive")
	}
	return &PFabricQueue{capacity: capacity}
}

// Enqueue implements Queue with preemptive drop of the least-urgent packet.
func (q *PFabricQueue) Enqueue(p *Packet) bool {
	q.pkts = append(q.pkts, p)
	q.bytes += int64(p.WireSize())
	accepted := true
	for q.bytes > q.capacity {
		// Evict the packet with the largest remaining size (latest
		// arrival among ties, so earlier packets of the same flow
		// survive).
		worst := 0
		for i, c := range q.pkts {
			if c.Prio >= q.pkts[worst].Prio {
				worst = i
			}
		}
		victim := q.pkts[worst]
		q.pkts = append(q.pkts[:worst], q.pkts[worst+1:]...)
		q.bytes -= int64(victim.WireSize())
		if victim == p {
			accepted = false
		}
		if q.onDrop != nil {
			q.onDrop(victim)
		}
	}
	return accepted
}

// Dequeue implements Queue: lowest Prio first, FIFO among equals.
func (q *PFabricQueue) Dequeue() *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	best := 0
	for i, c := range q.pkts {
		if c.Prio < q.pkts[best].Prio {
			best = i
		}
	}
	p := q.pkts[best]
	q.pkts = append(q.pkts[:best], q.pkts[best+1:]...)
	q.bytes -= int64(p.WireSize())
	return p
}

// Len implements Queue.
func (q *PFabricQueue) Len() int { return len(q.pkts) }

// Bytes implements Queue.
func (q *PFabricQueue) Bytes() int64 { return q.bytes }

// SetDropCallback implements Queue.
func (q *PFabricQueue) SetDropCallback(fn func(*Packet)) { q.onDrop = fn }

// StrictPriorityQueue implements PIAS-style strict priority with K bands:
// band 0 always dequeues before band 1, and so on; FIFO within a band. The
// byte capacity is shared; overflow drops the arriving packet.
type StrictPriorityQueue struct {
	capacity int64
	bytes    int64
	bands    []pktRing
	onDrop   func(*Packet)
}

// NewStrictPriorityQueue returns a strict-priority queue with the given
// number of bands and shared byte capacity.
func NewStrictPriorityQueue(bands int, capacity int64) *StrictPriorityQueue {
	if bands <= 0 {
		panic("netsim: StrictPriorityQueue needs at least one band")
	}
	if capacity <= 0 {
		panic("netsim: StrictPriorityQueue capacity must be positive")
	}
	return &StrictPriorityQueue{capacity: capacity, bands: make([]pktRing, bands)}
}

// Enqueue implements Queue. Packets with out-of-range bands are clamped to
// the lowest-priority band rather than dropped, since band assignment is a
// host-side tagging policy.
//
// hot
func (q *StrictPriorityQueue) Enqueue(p *Packet) bool {
	if q.bytes+int64(p.WireSize()) > q.capacity {
		if q.onDrop != nil {
			q.onDrop(p)
		}
		return false
	}
	b := p.Band
	if b < 0 {
		b = 0
	}
	if b >= len(q.bands) {
		b = len(q.bands) - 1
	}
	q.bands[b].push(p)
	q.bytes += int64(p.WireSize())
	return true
}

// Dequeue implements Queue.
//
// hot
func (q *StrictPriorityQueue) Dequeue() *Packet {
	for b := range q.bands {
		if p := q.bands[b].pop(); p != nil {
			q.bytes -= int64(p.WireSize())
			return p
		}
	}
	return nil
}

// Len implements Queue.
func (q *StrictPriorityQueue) Len() int {
	n := 0
	for i := range q.bands {
		n += q.bands[i].len()
	}
	return n
}

// Bytes implements Queue.
func (q *StrictPriorityQueue) Bytes() int64 { return q.bytes }

// SetDropCallback implements Queue.
func (q *StrictPriorityQueue) SetDropCallback(fn func(*Packet)) { q.onDrop = fn }
