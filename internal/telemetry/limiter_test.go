package telemetry

import (
	"testing"

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
