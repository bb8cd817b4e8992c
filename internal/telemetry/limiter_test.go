package telemetry

import (
	"runtime"
	"testing"
	"unsafe"

	"mltcp/internal/sim"
)

// The rate limiter's edge behavior is part of the trace contract: which
// events survive sampling determines what downstream analysis sees, so
// first-emission, per-key independence, and the drop accounting are
// pinned here.

func TestLimiterFirstEventAlwaysPasses(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{})
	rec.CwndUpdate(0, 1, 10, 20, sim.Millisecond)
	if buf.Len() != 1 {
		t.Fatalf("first cwnd event dropped (%d buffered)", buf.Len())
	}
	// Even at time zero with a huge interval, another flow's first event
	// still passes: keys are (kind, flow), not global.
	rec.CwndUpdate(0, 2, 10, 20, sim.Millisecond)
	if buf.Len() != 2 {
		t.Fatalf("first event of flow 2 dropped (%d buffered)", buf.Len())
	}
	if got := rec.DroppedByLimiter(); got != 0 {
		t.Fatalf("DroppedByLimiter = %d before any suppression", got)
	}
}

func TestLimiterPerKindFlowIndependence(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{SampleEvery: 100 * sim.Millisecond})
	at := 10 * sim.Millisecond
	rec.CwndUpdate(at, 1, 10, 20, sim.Millisecond)                 // passes: first (cwnd, 1)
	rec.AggEval(at, 1, 0.5, linearAgg)                             // passes: first (agg, 1) — kind independent
	rec.CwndUpdate(at, 2, 10, 20, sim.Millisecond)                 // passes: first (cwnd, 2) — flow independent
	rec.CwndUpdate(at+sim.Millisecond, 1, 11, 20, sim.Millisecond) // dropped: 1ms < 100ms
	rec.AggEval(at+sim.Millisecond, 2, 0.5, linearAgg)             // passes: first (agg, 2)
	if buf.Len() != 4 {
		t.Fatalf("got %d events, want 4", buf.Len())
	}
	if got := rec.DroppedByLimiter(); got != 1 {
		t.Fatalf("DroppedByLimiter = %d, want 1", got)
	}
	// Once the interval elapses for a key, that key emits again without
	// disturbing the others.
	rec.CwndUpdate(at+100*sim.Millisecond, 1, 12, 20, sim.Millisecond)
	if buf.Len() != 5 {
		t.Fatalf("got %d events after interval, want 5", buf.Len())
	}
}

func TestLimiterDropCounterCorrectness(t *testing.T) {
	rec, buf, reg := NewBuffered(Options{SampleEvery: 50 * sim.Millisecond})
	const emits = 100
	for i := 0; i < emits; i++ {
		rec.CwndUpdate(sim.Time(i)*sim.Millisecond, 1, float64(i), 20, sim.Millisecond)
	}
	// 100 emissions over 99ms at a 50ms floor: t=0 and t=50 pass.
	if buf.Len() != 2 {
		t.Fatalf("got %d events, want 2", buf.Len())
	}
	if got := rec.DroppedByLimiter(); got != emits-2 {
		t.Fatalf("DroppedByLimiter = %d, want %d", got, emits-2)
	}
	// Unlimited kinds never touch the drop counter, and registry counters
	// keep counting the underlying occurrences regardless of sampling.
	for i := 0; i < 7; i++ {
		rec.Retransmit(sim.Time(i), 1, int64(i))
	}
	if got := rec.DroppedByLimiter(); got != emits-2 {
		t.Fatalf("DroppedByLimiter moved to %d on unlimited kind", got)
	}
	if got := reg.Counter("tcp.retransmits").Value(); got != 7 {
		t.Fatalf("tcp.retransmits = %d, want 7", got)
	}
}

func TestLimiterNegativeIntervalDisables(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{SampleEvery: -1})
	for i := 0; i < 10; i++ {
		rec.AggEval(0, 1, 0.5, linearAgg) // same key, same instant, every one passes
	}
	if buf.Len() != 10 {
		t.Fatalf("got %d events with limiting disabled, want 10", buf.Len())
	}
	if got := rec.DroppedByLimiter(); got != 0 {
		t.Fatalf("DroppedByLimiter = %d with limiting disabled", got)
	}
}

func TestLimiterNilRecorder(t *testing.T) {
	var rec *Recorder
	if got := rec.DroppedByLimiter(); got != 0 {
		t.Fatalf("nil recorder DroppedByLimiter = %d", got)
	}
}

// linearAgg stands in for an aggressiveness function.
func linearAgg(r float64) float64 { return 1 + r }

// TestAggEvalEvaluatesKeptSamplesOnly: AggEval runs the aggressiveness
// function for the samples the limit keeps and for no other, records
// its value, and counts the rest toward DroppedByLimiter.
func TestAggEvalEvaluatesKeptSamplesOnly(t *testing.T) {
	rec, buf, _ := NewBuffered(Options{SampleEvery: 10 * sim.Millisecond})
	evals := 0
	eval := func(r float64) float64 { evals++; return linearAgg(r) }
	for i := 0; i < 25; i++ {
		rec.AggEval(sim.Time(i)*sim.Millisecond, 1, 0.5, eval)
	}
	// 25 samples over 24ms at a 10ms floor: t=0, 10 and 20 are kept.
	if evals != 3 || buf.Len() != 3 {
		t.Fatalf("%d evaluations and %d events, want 3 of each", evals, buf.Len())
	}
	if got := rec.DroppedByLimiter(); got != 22 {
		t.Fatalf("DroppedByLimiter = %d, want 22", got)
	}
	if e := buf.Events()[1]; e.V0 != 0.5 || e.V1 != 1.5 {
		t.Fatalf("agg event ratio %v factor %v, want 0.5 and 1.5", e.V0, e.V1)
	}
	var nilRec *Recorder
	nilRec.AggEval(0, 1, 0.5, eval)
	if evals != 3 {
		t.Fatal("a nil recorder ran the aggressiveness function")
	}
}

// refLimiter is the sampling limiter as a map per kind from flow ID to
// the flow's last emitted sample time: the reference flowClock must
// match decision for decision.
type refLimiter struct {
	every sim.Time
	last  [2]map[int]sim.Time // cwnd, agg
	drops int64
}

func (l *refLimiter) sampled(kind, flow int, at sim.Time) bool {
	if l.every < 0 {
		return true
	}
	if l.last[kind] == nil {
		l.last[kind] = map[int]sim.Time{}
	}
	prev, seen := l.last[kind][flow]
	if seen && at-prev < l.every {
		l.drops++
		return false
	}
	l.last[kind][flow] = at
	return true
}

// TestLimiterMatchesMapReference drives the Recorder and refLimiter with
// the same cwnd and agg samples — flow 0, flow 1, a large flow ID and
// interleaved flows, with times that move forward, repeat and go back —
// and checks every keep-or-drop decision and the drop count.
func TestLimiterMatchesMapReference(t *testing.T) {
	flows := []int{0, 1, 2, 3, 7, 4095}
	for _, every := range []sim.Time{0, sim.Millisecond, -1} {
		rec, buf, _ := NewBuffered(Options{SampleEvery: every})
		ref := refLimiter{every: rec.every}
		rng := sim.NewRNG(uint64(every) + 7)
		at := sim.Time(0)
		for i := 0; i < 20000; i++ {
			// Runs of one flow, then a switch: both the per-flow spacing
			// and the interleaving are exercised.
			flow := flows[(i/5+rng.Intn(2))%len(flows)]
			switch rng.Intn(10) {
			case 0:
				at -= sim.Time(rng.Intn(int(sim.Millisecond)))
			case 1: // same instant
			default:
				at += sim.Time(rng.Intn(int(30 * sim.Millisecond)))
			}
			kind := rng.Intn(2)
			if i < 2*len(flows) {
				// First each flow of each kind once at time 0, the
				// largest IDs first, so the smaller ones find slots the
				// slice grew past.
				flow, kind, at = flows[len(flows)-1-i/2], i%2, 0
			}
			before := buf.Len()
			if kind == 0 {
				rec.CwndUpdate(at, flow, 1, 2, 0)
			} else {
				rec.AggEval(at, flow, 0.5, linearAgg)
			}
			if got, want := buf.Len() > before, ref.sampled(kind, flow, at); got != want {
				t.Fatalf("every %v, sample %d (kind %d, flow %d, at %v): kept %v, reference %v",
					every, i, kind, flow, at, got, want)
			}
		}
		if got := rec.DroppedByLimiter(); got != ref.drops {
			t.Fatalf("every %v: DroppedByLimiter = %d, reference %d", every, got, ref.drops)
		}
		if every >= 0 && ref.drops == 0 {
			t.Fatalf("every %v: no sample was dropped; the test exercises nothing", every)
		}
	}
}

// TestBufferEmitGrowsGeometrically: emitting n events allocates at most
// twice the final buffer's bytes, as a doubling capacity does (append's
// quarter growth allocates about five times the final buffer).
func TestBufferEmitGrowsGeometrically(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const n = 40000
	var buf Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		buf.Emit(Event{At: sim.Time(i), Kind: KindCwnd, Flow: 1})
	}
	runtime.ReadMemStats(&after)
	final := uint64(cap(buf.Events())) * uint64(unsafe.Sizeof(Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*final {
		t.Errorf("Emit of %d events allocated %d bytes, want <= 2× the final buffer's %d", n, got, final)
	}
	if buf.Len() != n || buf.Events()[n-1].At != sim.Time(n-1) {
		t.Fatalf("buffer holds %d events, last at %v", buf.Len(), buf.Events()[buf.Len()-1].At)
	}
}
