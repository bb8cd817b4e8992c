package telemetry

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mltcp/internal/sim"
)

func TestNilRecorderIsSafeAndDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Registry() != nil || r.Manifest() != nil {
		t.Fatal("nil recorder returned non-nil registry or manifest")
	}
	// Every emit method must be a no-op, not a panic.
	r.Emit(Event{})
	r.CwndUpdate(0, 1, 10, 20, sim.Millisecond)
	r.Retransmit(0, 1, 42)
	r.RTOFired(0, 1, sim.Second, 1)
	r.FastRecovery(0, 1, 5, 10)
	r.AggEval(0, 1, 0.5, linearAgg)
	r.QueueSample(0, "l", 100, 2)
	r.Drop(0, "l", 1, 100)
	r.ECNMark(0, "l", 1, 100)
	r.IterStart(0, 1, 0)
	r.IterEnd(0, 1, 0, sim.Second)
	r.Bandwidth(0, 1, sim.Second, 1000)
	r.SetManifest(&Manifest{})
}

func TestNewPanicsOnNilSink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil, ...) did not panic")
		}
	}()
	New(nil, Options{})
}

func TestRateLimitingPerKindAndFlow(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{SampleEvery: 100 * sim.Millisecond})
	rec.CwndUpdate(0, 1, 1, 0, 0)                      // first always passes
	rec.CwndUpdate(50*sim.Millisecond, 1, 2, 0, 0)     // too dense, dropped
	rec.CwndUpdate(100*sim.Millisecond, 1, 3, 0, 0)    // due
	rec.CwndUpdate(40*sim.Millisecond, 2, 4, 0, 0)     // other flow: first passes
	rec.AggEval(60*sim.Millisecond, 1, 0.1, linearAgg) // other kind: first passes
	rec.Retransmit(70*sim.Millisecond, 1, 9)           // not rate limited
	rec.Retransmit(71*sim.Millisecond, 1, 10)          // not rate limited
	want := []float64{1, 3, 4}
	var got []float64
	retx := 0
	for _, e := range buf.Events() {
		switch e.Kind {
		case KindCwnd:
			got = append(got, e.V0)
		case KindRetransmit:
			retx++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cwnd samples %v, want %v", got, want)
	}
	if retx != 2 {
		t.Fatalf("retransmits rate-limited: got %d events, want 2", retx)
	}
}

func TestNegativeSampleEveryDisablesLimit(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{SampleEvery: -1})
	for i := 0; i < 5; i++ {
		rec.CwndUpdate(sim.Time(i), 1, float64(i), 0, 0)
	}
	if buf.Len() != 5 {
		t.Fatalf("got %d events, want 5", buf.Len())
	}
}

func TestRecorderUpdatesRegistry(t *testing.T) {
	rec, _, reg := NewBuffered(Options{})
	rec.Retransmit(0, 1, 1)
	rec.Retransmit(0, 1, 2)
	rec.RTOFired(0, 1, sim.Second, 1)
	rec.FastRecovery(0, 1, 2, 4)
	rec.Drop(0, "l", 1, 10)
	rec.ECNMark(0, "l", 1, 10)
	rec.QueueSample(0, "l", 3000, 2)
	rec.IterEnd(0, 1, 0, 2*sim.Second)
	for name, want := range map[string]int64{
		"tcp.retransmits":     2,
		"tcp.timeouts":        1,
		"tcp.fast_recoveries": 1,
		"net.drops":           1,
		"net.ecn_marks":       1,
		"job.iterations":      1,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	h := reg.Histogram("net.queue_bytes", DefaultQueueBuckets)
	if h.Count() != 1 || h.Sum() != 3000 {
		t.Errorf("queue histogram count=%d sum=%v, want 1/3000", h.Count(), h.Sum())
	}
	d := reg.Histogram("job.comm_seconds", DefaultDurationBuckets)
	if d.Count() != 1 || d.Sum() != 2 {
		t.Errorf("duration histogram count=%d sum=%v, want 1/2", d.Count(), d.Sum())
	}
}

func TestHistogramBucketing(t *testing.T) {
	g := NewRegistry()
	h := g.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// SearchFloat64s: counts[i] gets observations with v <= bounds[i].
	want := []int64{2, 1, 1, 1}
	if !reflect.DeepEqual(h.Counts(), want) {
		t.Fatalf("counts %v, want %v", h.Counts(), want)
	}
	if h.Mean() != 21.2 {
		t.Fatalf("mean %v, want 21.2", h.Mean())
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{1, 1})
}

func TestBucketSeries(t *testing.T) {
	s := NewBucketSeries(10)
	s.Add(0, 1)
	s.Add(9, 2)
	s.Add(10, 5)
	s.Add(35, 7)
	if want := []int64{3, 5, 0, 7}; !reflect.DeepEqual(s.Buckets(), want) {
		t.Fatalf("buckets %v, want %v", s.Buckets(), want)
	}
	if s.Sum() != 15 {
		t.Fatalf("sum %d, want 15", s.Sum())
	}
	if s.Width() != 10 {
		t.Fatalf("width %v, want 10", s.Width())
	}
}

// allKindsEvents returns one event of every kind with distinctive values.
func allKindsEvents() []Event {
	return []Event{
		{At: 1, Kind: KindCwnd, Flow: 1, N: 2500000, V0: 12.5, V1: 64},
		{At: 2, Kind: KindRetransmit, Flow: 2, N: 1448},
		{At: 3, Kind: KindRTO, Flow: 1, N: 200000000, V0: 1},
		{At: 4, Kind: KindFastRecovery, Flow: 2, V0: 8, V1: 10},
		{At: 5, Kind: KindAgg, Flow: 1, V0: 0.25, V1: 0.625},
		{At: 6, Kind: KindQueue, Link: "bottleneck-fwd", N: 30000, M: 20},
		{At: 7, Kind: KindDrop, Link: "bottleneck-fwd", Flow: 1, N: 150000},
		{At: 8, Kind: KindECNMark, Link: "bottleneck-fwd", Flow: 2, N: 30000},
		{At: 9, Kind: KindIterStart, Flow: 1, N: 3},
		{At: 10, Kind: KindIterEnd, Flow: 1, N: 3, M: 400000000},
		{At: 11, Kind: KindBandwidth, Flow: 2, M: 50000000, V0: 1.25e6},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := &Manifest{
		Scenario: "rt", Backend: "packet", Policy: "mltcp", Seed: 7,
		CapacityGbps: 0.5, Scale: 0.01, DurationNS: int64(20 * sim.Second),
		Jobs: []ManifestJob{{Flow: 1, Name: "J1", Profile: "gpt2", IdealNS: 1800000000, BytesPerIter: 12500000}},
	}
	events := allKindsEvents()
	reg := NewRegistry()
	reg.Counter("tcp.retransmits").Add(3)
	reg.Gauge("x").Set(1.5)
	reg.Histogram("h", []float64{1, 2}).Observe(1.5)

	var buf bytes.Buffer
	if err := Write(&buf, m, events, reg); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantM := *m
	wantM.Kind = "manifest"
	wantM.Schema = SchemaVersion
	if !reflect.DeepEqual(tr.Manifest, &wantM) {
		t.Errorf("manifest round trip:\n got %+v\nwant %+v", tr.Manifest, &wantM)
	}
	if !reflect.DeepEqual(tr.Events, events) {
		t.Errorf("events round trip:\n got %+v\nwant %+v", tr.Events, events)
	}
	if tr.Metrics == nil || tr.Metrics.Counters["tcp.retransmits"] != 3 ||
		tr.Metrics.Gauges["x"] != 1.5 || tr.Metrics.Histograms["h"].Count != 1 {
		t.Errorf("metrics round trip: %+v", tr.Metrics)
	}
}

func TestWriteSortsStablyByTime(t *testing.T) {
	events := []Event{
		{At: 10, Kind: KindIterStart, Flow: 1, N: 0},
		{At: 5, Kind: KindQueue, Link: "l", N: 1},
		{At: 10, Kind: KindIterStart, Flow: 2, N: 0}, // tie: emission order kept
		{At: 1, Kind: KindRetransmit, Flow: 1, N: 7},
	}
	var buf bytes.Buffer
	if err := Write(&buf, nil, events, nil); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("got %d events", len(tr.Events))
	}
	order := []sim.Time{1, 5, 10, 10}
	for i, e := range tr.Events {
		if e.At != order[i] {
			t.Fatalf("event %d at %v, want %v", i, e.At, order[i])
		}
	}
	if tr.Events[2].Flow != 1 || tr.Events[3].Flow != 2 {
		t.Fatal("tied events reordered")
	}
	// Input slice must not be mutated by Write's sort.
	if events[0].At != 10 || events[3].At != 1 {
		t.Fatal("Write mutated its input slice")
	}

	// Buffers of k ascending runs, the shape Write merges, with times
	// drawn from a small range so runs share timestamps: the lines come
	// out in stable-sort order and the input is left as it was.
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 300; trial++ {
		var events []Event
		for run := 0; run < 1+rng.IntN(6); run++ {
			at := sim.Time(rng.IntN(4))
			for n := rng.IntN(12); n > 0; n-- {
				events = append(events, Event{At: at, Kind: KindRetransmit, Flow: run + 1, N: int64(len(events))})
				at += sim.Time(rng.IntN(3))
			}
		}
		input := slices.Clone(events)
		var buf bytes.Buffer
		if err := Write(&buf, nil, events, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(events, input) {
			t.Fatal("Write mutated its input slice")
		}
		tr, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(events)
		slices.SortStableFunc(want, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(tr.Events, want) {
			t.Fatalf("runs %v written as %v, want %v", events, tr.Events, want)
		}
	}
}

func TestReadRejectsUnknownKind(t *testing.T) {
	_, err := Read(strings.NewReader(`{"t":1,"kind":"nope"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Fatalf("err = %v, want unknown-kind error", err)
	}
}

func TestWriteByteIdentical(t *testing.T) {
	events := allKindsEvents()
	var a, b bytes.Buffer
	if err := Write(&a, nil, events, nil); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, nil, events, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two Writes of the same events differ")
	}
}

func TestKindStringCoversAllKinds(t *testing.T) {
	for k := KindCwnd; k <= KindBandwidth; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if named, _ := kindByName([]byte(k.String())); named != k {
			t.Fatalf("kind %d does not round-trip through its name", k)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	rec, _, _ := NewBuffered(Options{})
	ctx := WithRecorder(t.Context(), rec)
	if FromContext(ctx) != rec {
		t.Fatal("recorder lost in context")
	}
	if FromContext(t.Context()) != nil {
		t.Fatal("empty context returned a recorder")
	}
}
