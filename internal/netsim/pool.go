package netsim

// PacketPool is an explicit free list of Packet structs. Topologies own
// one pool shared by every host and link, so the per-hop lifecycle
// (sender emit → queue → wire → receiver dispatch) recycles a bounded
// working set instead of allocating each segment.
//
// It is deliberately not a sync.Pool: the simulator is single-threaded
// per engine, and sync.Pool's GC-driven eviction would make allocation
// counts (which TestExactFigures pins) nondeterministic.
//
// A nil *PacketPool is valid and falls back to plain allocation with no
// recycling — standalone component tests that wire links by hand keep
// the old semantics without any setup.
type PacketPool struct {
	free []*Packet
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed packet, reusing a recycled one when available.
//
// hot
func (pp *PacketPool) Get() *Packet {
	if pp == nil || len(pp.free) == 0 {
		return &Packet{}
	}
	n := len(pp.free) - 1
	p := pp.free[n]
	pp.free[n] = nil
	pp.free = pp.free[:n]
	return p
}

// Put recycles a packet the caller no longer references. The packet is
// zeroed immediately so stale header fields can never leak into a reused
// segment. Exactly one component owns a packet at its terminal event
// (endpoint dispatch, queue drop, or wire loss); only that owner may Put.
//
// hot
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	*p = Packet{}
	pp.free = append(pp.free, p)
}
