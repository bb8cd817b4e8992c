// Package telemetry is the simulation stack's observability subsystem: a
// deterministic, allocation-conscious event bus plus a metrics registry.
//
// Components emit typed events — per-flow congestion-window updates,
// retransmissions, RTOs, fast-recovery entries, MLTCP aggressiveness
// evaluations, queue-depth/drop/ECN-mark samples, and training-iteration
// boundaries — through a *Recorder. A nil *Recorder is a valid, near-free
// no-op: every emit method has a nil-receiver fast path, so instrumented
// hot paths cost one inlinable nil check when telemetry is disabled.
//
// Determinism is a design requirement, not an accident: events carry
// simulated time only (nothing here reads the wall clock), recorders are
// owned by a single run (one goroutine, like the engine), and Write
// serializes traces in stable time order with exact float formatting —
// so the same (scenario, seed) yields a byte-identical JSONL trace at any
// worker count. That property is what makes traces usable as training data for
// learned simulators and as golden run artifacts.
package telemetry

import (
	"context"
	"slices"

	"mltcp/internal/sim"
)

// Kind identifies an event type. The JSONL name of each kind (and its
// payload fields) is pinned by the schema golden test; adding a kind is
// backward compatible, renaming one is not.
type Kind uint8

const (
	// KindCwnd is a congestion-window sample taken on an ACK: V0=cwnd
	// (packets), V1=ssthresh, N=smoothed RTT in ns.
	KindCwnd Kind = iota + 1
	// KindRetransmit is one retransmitted segment: N=sequence number.
	KindRetransmit
	// KindRTO is a retransmission-timeout firing: N=the backed-off RTO in
	// ns, V0=cwnd after the CC's timeout reaction.
	KindRTO
	// KindFastRecovery is a fast-recovery entry (third dup ACK):
	// V0=ssthresh and V1=cwnd after the CC's loss reaction.
	KindFastRecovery
	// KindAgg is an MLTCP aggressiveness evaluation: V0=bytes_ratio,
	// V1=F(bytes_ratio).
	KindAgg
	// KindQueue is a periodic queue-occupancy sample: Link names the
	// link, N=queued bytes, M=queued packets.
	KindQueue
	// KindDrop is a queue drop: Link, Flow of the dropped packet,
	// N=queue occupancy in bytes after the drop.
	KindDrop
	// KindECNMark is a CE mark applied at enqueue: Link, Flow, N=queue
	// occupancy in bytes that triggered the mark.
	KindECNMark
	// KindIterStart is a training-iteration communication-phase start:
	// N=iteration index (0-based).
	KindIterStart
	// KindIterEnd is a communication-phase completion: N=iteration
	// index, M=the phase's duration (the per-iteration FCT) in ns.
	KindIterEnd
	// KindBandwidth is one completed bandwidth bucket: M=bucket width in
	// ns, V0=bytes delivered in the bucket ending at At.
	KindBandwidth
)

// kindByName returns the event kind with the given wire name. A walk
// of the eleven-row schema table beats a map lookup here, on the
// decoder's per-line path.
func kindByName(name []byte) (Kind, bool) {
	for k := KindCwnd; int(k) < len(schema); k++ {
		if schema[k].name == string(name) {
			return k, true
		}
	}
	return 0, false
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if sc, ok := k.schema(); ok {
		return sc.name
	}
	return "unknown"
}

// Event is one telemetry record. It is a flat value type — no per-event
// allocation, no interface boxing — with a small payload union whose
// per-kind meaning is documented on the Kind constants. Flow is the
// emitting flow/job (0 when not flow-scoped); Link names the link for
// queue-scoped kinds.
type Event struct {
	At   sim.Time
	Kind Kind
	Flow int
	Link string
	N, M int64
	V0   float64
	V1   float64
}

// Sink receives emitted events. Implementations used inside a simulation
// run are called from the run's single goroutine and need no locking.
type Sink interface {
	Emit(e Event)
}

// Buffer is a Sink that retains events in emission order.
type Buffer struct {
	evs []Event
}

// Emit implements Sink.
func (b *Buffer) Emit(e Event) {
	if len(b.evs) == cap(b.evs) {
		// Double the capacity, as Read does: append grows a long slice by
		// only a quarter, copying the events ~4 times over.
		b.evs = slices.Grow(b.evs, max(len(b.evs), 512))
	}
	b.evs = append(b.evs, e)
}

// Events returns the buffered events in emission order. The slice is the
// buffer's backing store; do not mutate it while still emitting.
func (b *Buffer) Events() []Event { return b.evs }

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.evs) }

// Reset drops all buffered events, keeping the allocation.
func (b *Buffer) Reset() { b.evs = b.evs[:0] }

type discard struct{}

func (discard) Emit(Event) {}

// Discard is a Sink that drops every event. It measures the cost of
// event construction alone (see BenchmarkTelemetryOverhead).
var Discard Sink = discard{}

// Options tunes a Recorder.
type Options struct {
	// SampleEvery is the minimum spacing between successive high-rate
	// events (cwnd, agg) of the same flow; denser emissions are dropped.
	// Zero defaults to 50ms of simulated time; negative disables the
	// limit (every event is recorded).
	SampleEvery sim.Time
	// Registry, when non-nil, is updated as events flow: drop/mark/
	// retransmit counters, iteration counts, and occupancy histograms.
	Registry *Registry
}

// DefaultSampleEvery is the default minimum spacing of cwnd/agg events.
const DefaultSampleEvery = 50 * sim.Millisecond

// Recorder is the typed front end components emit through. A nil
// *Recorder is the disabled state: every method is safe to call and
// returns immediately, so instrumented code needs no conditionals.
//
// The two high-rate kinds, CwndUpdate and AggEval, are rate-limited per
// flow, and most of their emissions are suppressed (about 95% in a
// traced fluid run). Each checks the limit before building its event,
// and AggEval takes the aggressiveness function rather than its value,
// so a suppressed agg sample costs no evaluation.
type Recorder struct {
	sink  Sink
	every sim.Time
	// lastCwnd and lastAgg hold each flow's last emitted sample time
	// for the two rate-limited kinds. The limiter consults them on every
	// cwnd or agg sample, so they index by flow ID: every backend numbers
	// its flows 1…n.
	lastCwnd flowClock
	lastAgg  flowClock
	limDrops int64
	reg      *Registry
	manifest *Manifest
}

// New builds a Recorder emitting into sink.
func New(sink Sink, opts Options) *Recorder {
	if sink == nil {
		panic("telemetry: nil sink (use a nil *Recorder to disable telemetry)")
	}
	every := opts.SampleEvery
	if every == 0 {
		every = DefaultSampleEvery
	}
	return &Recorder{
		sink:  sink,
		every: every,
		reg:   opts.Registry,
	}
}

// NewBuffered builds a Recorder over a fresh Buffer and Registry and
// returns all three — the usual arrangement for tracing one run.
func NewBuffered(opts Options) (*Recorder, *Buffer, *Registry) {
	buf := &Buffer{}
	if opts.Registry == nil {
		opts.Registry = NewRegistry()
	}
	return New(buf, opts), buf, opts.Registry
}

// Enabled reports whether events are being recorded. It is the one-check
// fast path for call sites that would otherwise compute event payloads.
//
//lint:allow telemetryemit Enabled's whole body is the nil test itself; it dereferences nothing
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the attached metrics registry (nil when disabled or
// none was configured).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// SetManifest attaches the run manifest (no-op on a nil Recorder).
func (r *Recorder) SetManifest(m *Manifest) {
	if r == nil {
		return
	}
	r.manifest = m
}

// Manifest returns the attached run manifest, if any.
func (r *Recorder) Manifest() *Manifest {
	if r == nil {
		return nil
	}
	return r.manifest
}

// Emit forwards a raw event to the sink. Custom components with event
// shapes not covered by the typed methods use this directly.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.sink.Emit(e)
}

// A flowClock is one rate-limited kind's last emitted sample time per
// flow, indexed by flow ID. Flow IDs are small and non-negative (every
// backend numbers its flows 1…n), so the slice stays as long as the
// largest ID seen; a negative ID panics.
type flowClock []flowSample

// A flowSample is a flow's last emitted sample time, if it has one.
type flowSample struct {
	at   sim.Time
	seen bool
}

// sampled reports whether a high-rate emission of flow is due, and
// records it in last, the kind's per-flow clock. The first emission of
// each flow always passes.
func (r *Recorder) sampled(last *flowClock, flow int, at sim.Time) bool {
	if r.every < 0 {
		return true
	}
	if uint(flow) >= uint(len(*last)) {
		return sampledNew(last, flow, at)
	}
	s := &(*last)[flow]
	if s.seen && at-s.at < r.every {
		r.limDrops++
		return false
	}
	*s = flowSample{at, true}
	return true
}

// sampledNew is sampled for a flow past the end of last: it grows the
// slice to hold flow and lets the flow's first emission pass.
func sampledNew(last *flowClock, flow int, at sim.Time) bool {
	*last = append(*last, make([]flowSample, flow+1-len(*last))...)
	(*last)[flow] = flowSample{at, true}
	return true
}

// DroppedByLimiter returns how many high-rate emissions the sampling
// limiter suppressed — the denominator context for reading a trace's
// cwnd/agg density (0 on a nil Recorder).
func (r *Recorder) DroppedByLimiter() int64 {
	if r == nil {
		return 0
	}
	return r.limDrops
}

// LimiterDropsMetric is the registry counter FlushLimiterStats records
// the sampling limiter's drop count into. Trace consumers read it from
// the metrics line to tell a sparse run from a rate-limited one.
const LimiterDropsMetric = "telemetry.limiter_drops"

// FlushLimiterStats records the sampling limiter's cumulative drop count
// into the attached registry under LimiterDropsMetric. Call it exactly
// once, immediately before serializing the trace (the counter is created
// even at zero drops, so consumers can rely on its presence).
func (r *Recorder) FlushLimiterStats() {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter(LimiterDropsMetric).Add(r.limDrops)
	}
}

// CwndUpdate records a congestion-window sample (rate-limited per flow).
func (r *Recorder) CwndUpdate(at sim.Time, flow int, cwnd, ssthresh float64, srtt sim.Time) {
	if r == nil || !r.sampled(&r.lastCwnd, flow, at) {
		return
	}
	r.sink.Emit(Event{At: at, Kind: KindCwnd, Flow: flow, N: int64(srtt), V0: cwnd, V1: ssthresh})
}

// Retransmit records one retransmitted segment.
func (r *Recorder) Retransmit(at sim.Time, flow int, seq int64) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("tcp.retransmits").Inc()
	}
	r.sink.Emit(Event{At: at, Kind: KindRetransmit, Flow: flow, N: seq})
}

// RTOFired records a retransmission timeout.
func (r *Recorder) RTOFired(at sim.Time, flow int, rto sim.Time, cwnd float64) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("tcp.timeouts").Inc()
	}
	r.sink.Emit(Event{At: at, Kind: KindRTO, Flow: flow, N: int64(rto), V0: cwnd})
}

// FastRecovery records a fast-recovery entry.
func (r *Recorder) FastRecovery(at sim.Time, flow int, ssthresh, cwnd float64) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("tcp.fast_recoveries").Inc()
	}
	r.sink.Emit(Event{At: at, Kind: KindFastRecovery, Flow: flow, V0: ssthresh, V1: cwnd})
}

// AggEval records an MLTCP aggressiveness evaluation of flow: the bytes
// ratio and the factor eval(ratio) (rate-limited per flow). eval runs
// only for a sample the limit keeps.
func (r *Recorder) AggEval(at sim.Time, flow int, ratio float64, eval func(float64) float64) {
	if r == nil || !r.sampled(&r.lastAgg, flow, at) {
		return
	}
	r.sink.Emit(Event{At: at, Kind: KindAgg, Flow: flow, V0: ratio, V1: eval(ratio)})
}

// QueueSample records a queue-occupancy sample.
func (r *Recorder) QueueSample(at sim.Time, link string, bytes int64, pkts int) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Histogram("net.queue_bytes", DefaultQueueBuckets).Observe(float64(bytes))
	}
	r.sink.Emit(Event{At: at, Kind: KindQueue, Link: link, N: bytes, M: int64(pkts)})
}

// Drop records a queue drop.
func (r *Recorder) Drop(at sim.Time, link string, flow int, queueBytes int64) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("net.drops").Inc()
	}
	r.sink.Emit(Event{At: at, Kind: KindDrop, Link: link, Flow: flow, N: queueBytes})
}

// ECNMark records a CE mark applied at enqueue.
func (r *Recorder) ECNMark(at sim.Time, link string, flow int, queueBytes int64) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("net.ecn_marks").Inc()
	}
	r.sink.Emit(Event{At: at, Kind: KindECNMark, Link: link, Flow: flow, N: queueBytes})
}

// IterStart records a communication-phase start (iter is 0-based).
func (r *Recorder) IterStart(at sim.Time, flow int, iter int) {
	if r == nil {
		return
	}
	r.sink.Emit(Event{At: at, Kind: KindIterStart, Flow: flow, N: int64(iter)})
}

// IterEnd records a communication-phase completion; commDur is the
// phase's duration (the per-iteration FCT).
func (r *Recorder) IterEnd(at sim.Time, flow int, iter int, commDur sim.Time) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.reg.Counter("job.iterations").Inc()
		r.reg.Histogram("job.comm_seconds", DefaultDurationBuckets).Observe(commDur.Seconds())
	}
	r.sink.Emit(Event{At: at, Kind: KindIterEnd, Flow: flow, N: int64(iter), M: int64(commDur)})
}

// Bandwidth records one completed bandwidth bucket (At is the bucket's
// end; bytes were delivered over the preceding bucket width).
func (r *Recorder) Bandwidth(at sim.Time, flow int, bucket sim.Time, bytes float64) {
	if r == nil {
		return
	}
	r.sink.Emit(Event{At: at, Kind: KindBandwidth, Flow: flow, M: int64(bucket), V0: bytes})
}

// BucketSeries accumulates int64 quantities into fixed-width time
// buckets — the shared primitive behind the netsim bandwidth and queue
// samplers (previously two copies of the same grow-and-index code).
type BucketSeries struct {
	width   sim.Time
	buckets []int64
}

// NewBucketSeries returns an accumulator with the given bucket width.
func NewBucketSeries(width sim.Time) *BucketSeries {
	if width <= 0 {
		panic("telemetry: bucket width must be positive")
	}
	return &BucketSeries{width: width}
}

// Width returns the bucket width.
func (s *BucketSeries) Width() sim.Time { return s.width }

// Add accumulates v into the bucket containing time at.
func (s *BucketSeries) Add(at sim.Time, v int64) {
	idx := int(at / s.width)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += v
}

// Buckets returns the accumulated values, one per bucket.
func (s *BucketSeries) Buckets() []int64 { return s.buckets }

// Sum returns the total accumulated value.
func (s *BucketSeries) Sum() int64 {
	var t int64
	for _, v := range s.buckets {
		t += v
	}
	return t
}

type ctxKey struct{}

// WithRecorder returns a context carrying the recorder, the seam through
// which backends receive telemetry without changing their interface.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext extracts the recorder from the context (nil — telemetry
// disabled — when absent).
func FromContext(ctx context.Context) *Recorder {
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
