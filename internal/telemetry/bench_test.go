package telemetry

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"testing"

	"mltcp/internal/sim"
)

// The trace round trip's two halves, on two traces: a synthetic ~5k-event
// trace that cycles through every event kind, links included, and one
// shaped like a traced fluid run (see traceOpEvents). Run with
//
//	go test -run='^$' -bench=. -benchmem ./internal/telemetry

func BenchmarkRead(b *testing.B) {
	benchRead(b, benchTrace(b, 5000, true))
}

func BenchmarkWrite(b *testing.B) {
	tr, err := Read(bytes.NewReader(benchTrace(b, 5000, true)))
	if err != nil {
		b.Fatal(err)
	}
	// A run's buffer holds its bandwidth buckets last, replayed after the
	// run, so Write's sort has merging to do.
	var events, buckets []Event
	for _, e := range tr.Events {
		if e.Kind == KindBandwidth {
			buckets = append(buckets, e)
		} else {
			events = append(events, e)
		}
	}
	benchWrite(b, tr.Manifest, append(events, buckets...))
}

// BenchmarkReadTraceOp and BenchmarkWriteTraceOp run the round trip on
// a trace shaped like one traced fluid run of a gpt3 and three gpt2
// jobs: the traffic trace analysis spends its decoding and encoding on.
func BenchmarkReadTraceOp(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, benchManifest(), traceOpEvents(), nil); err != nil {
		b.Fatal(err)
	}
	benchRead(b, buf.Bytes())
}

func BenchmarkWriteTraceOp(b *testing.B) {
	benchWrite(b, benchManifest(), traceOpEvents())
}

func benchRead(b *testing.B, trace []byte) {
	b.SetBytes(int64(len(trace)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(trace)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWrite(b *testing.B, m *Manifest, events []Event) {
	var buf bytes.Buffer
	if err := Write(&buf, m, events, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, m, events, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// traceOpEvents returns a buffer in the order a traced fluid run of four
// jobs leaves it: the live stream of agg samples every 50ms per flow and
// iteration boundaries, then each flow's bandwidth buckets, 600 per
// flow. That is about 2.4k bw and 2.3k agg events, with no links. As in
// the traces of perfbench's trace workload, about half the payload
// floats need all 17 digits and the rest are short decimals (0.375,
// 3.125e+08).
func traceOpEvents() []Event {
	const (
		flows   = 4
		buckets = 600
		width   = 50 * sim.Millisecond
	)
	var live []Event
	for f := 1; f <= flows; f++ {
		iterLen := 24 + 12*(f%2) // buckets per iteration
		for k := 0; k < buckets; k++ {
			at := sim.Time(k)*width + sim.Time(f)
			if k%iterLen == 0 {
				live = append(live, Event{At: at, Kind: KindIterStart, Flow: f, N: int64(k / iterLen)})
			}
			if k%iterLen == iterLen/2 {
				live = append(live, Event{At: at, Kind: KindIterEnd, Flow: f, N: int64(k / iterLen), M: int64(sim.Time(iterLen/2) * width)})
			}
			if k%25 != 24 {
				ratio := float64(k%8) / 8
				if k%2 == 1 {
					ratio = float64(k%iterLen) / float64(iterLen+7) // over 31 or 43: full precision
				}
				live = append(live, Event{At: at, Kind: KindAgg, Flow: f, V0: ratio, V1: 0.5 + 1.25*ratio})
			}
		}
	}
	slices.SortStableFunc(live, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
	for f := 1; f <= flows; f++ {
		for k := 0; k < buckets; k++ {
			bytes := 3.125e8
			if k%2 == 0 {
				bytes *= float64(k%7+1) / 7
			}
			live = append(live, Event{At: sim.Time(k+1) * width, Kind: KindBandwidth, Flow: f, M: int64(width), V0: bytes})
		}
	}
	return live
}

func benchManifest() *Manifest {
	return &Manifest{Scenario: "bench", Backend: "fluid", Policy: "mltcp", Seed: 1, CapacityGbps: 50, Scale: 1,
		Jobs: []ManifestJob{{Flow: 1, Name: "J1", Profile: "gpt2", IdealNS: 1800000000, BytesPerIter: 12500000}}}
}
