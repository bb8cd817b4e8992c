package netsim

import (
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// BandwidthMonitor samples a link's transmitted bytes into fixed-width time
// buckets, per flow and in total. It reproduces the paper's bandwidth-
// allocation plots (Figures 2, 4, 6). Accumulation is a thin adapter over
// telemetry.BucketSeries; EmitTo replays the series as trace events.
type BandwidthMonitor struct {
	bucket  sim.Time
	perFlow map[FlowID]*telemetry.BucketSeries
	total   *telemetry.BucketSeries
}

// NewBandwidthMonitor attaches a monitor to the link with the given bucket
// width.
func NewBandwidthMonitor(l *Link, bucket sim.Time) *BandwidthMonitor {
	if bucket <= 0 {
		panic("netsim: monitor bucket must be positive")
	}
	m := &BandwidthMonitor{
		bucket:  bucket,
		perFlow: make(map[FlowID]*telemetry.BucketSeries),
		total:   telemetry.NewBucketSeries(bucket),
	}
	l.AddTap(func(now sim.Time, p *Packet) {
		if p.Ack {
			return // ACK bytes are noise on bandwidth plots
		}
		s, ok := m.perFlow[p.Flow]
		if !ok {
			s = telemetry.NewBucketSeries(bucket)
			m.perFlow[p.Flow] = s
		}
		s.Add(now, int64(p.WireSize()))
		m.total.Add(now, int64(p.WireSize()))
	})
	return m
}

// Bucket returns the bucket width.
func (m *BandwidthMonitor) Bucket() sim.Time { return m.bucket }

// Flows returns the flow IDs observed, in ascending order.
func (m *BandwidthMonitor) Flows() []FlowID {
	var ids []FlowID
	for id := range m.perFlow {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// FlowSeries returns the flow's throughput per bucket, in bits per second.
func (m *BandwidthMonitor) FlowSeries(f FlowID) []units.Rate {
	if s, ok := m.perFlow[f]; ok {
		return toRates(s.Buckets(), m.bucket)
	}
	return nil
}

// TotalSeries returns the link's total throughput per bucket.
func (m *BandwidthMonitor) TotalSeries() []units.Rate {
	return toRates(m.total.Buckets(), m.bucket)
}

func toRates(bytes []int64, bucket sim.Time) []units.Rate {
	out := make([]units.Rate, len(bytes))
	for i, b := range bytes {
		out[i] = units.Rate(float64(b) * 8 / bucket.Seconds())
	}
	return out
}

// FlowBytes returns the cumulative non-ACK bytes the link carried for f.
func (m *BandwidthMonitor) FlowBytes(f FlowID) int64 {
	if s, ok := m.perFlow[f]; ok {
		return s.Sum()
	}
	return 0
}

// EmitTo replays the monitor's per-flow buckets as KindBandwidth events
// (one per non-empty bucket, timestamped at the bucket's end). Call after
// the run; telemetry.Write's merge by time interleaves them with the
// live event stream deterministically.
func (m *BandwidthMonitor) EmitTo(rec *telemetry.Recorder) {
	if !rec.Enabled() {
		return
	}
	for _, f := range m.Flows() {
		for i, b := range m.perFlow[f].Buckets() {
			if b == 0 {
				continue
			}
			rec.Bandwidth(sim.Time(i+1)*m.bucket, int(f), m.bucket, float64(b))
		}
	}
}
