package telemetry

import (
	"bytes"
	"io"
	"testing"
)

// The trace round trip's two halves on a synthetic ~5k-event trace that
// cycles through every event kind, links included. Run with
//
//	go test -run='^$' -bench=. -benchmem ./internal/telemetry

func BenchmarkRead(b *testing.B) {
	trace := benchTrace(b, 5000, true)
	b.SetBytes(int64(len(trace)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(trace)); err != nil {
			b.Fatal(err)
		}
	}
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
	events = append(events, buckets...)
	var buf bytes.Buffer
	if err := Write(&buf, tr.Manifest, events, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, tr.Manifest, events, nil); err != nil {
			b.Fatal(err)
		}
	}
}
