package sim

import "testing"

// Micro-benchmarks for the event-heap engine's hot operations. Run with
//
//	go test -bench=Engine -benchmem ./internal/sim
//
// Steady-state schedule/cancel/reschedule must report 0 allocs/op: the
// free list absorbs all event traffic once warmed.

// BenchmarkEngineScheduleDrain measures the schedule-then-fire cycle for
// a batch of 64 nearby events that drain in order, the dominant pattern
// on the packet path.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	for i := 0; i < b.N; i++ {
		for k := Time(0); k < 64; k++ {
			e.After(k*17, fn)
		}
		e.Run()
	}
}

// BenchmarkEngineCancel measures schedule+cancel churn — the RTO-timer
// pattern where almost every scheduled event is canceled before firing.
func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	var ids [64]EventID
	for i := 0; i < b.N; i++ {
		for k := range ids {
			ids[k] = e.After(Time(k+1)*1000, fn)
		}
		for k := range ids {
			e.Cancel(ids[k])
		}
	}
}

// BenchmarkEngineReschedule measures the Timer Reset loop: the fired
// timer re-arms itself from its own handler, filling the fired event's
// hole, with zero allocations in steady state.
func BenchmarkEngineReschedule(b *testing.B) {
	e := New()
	n := 0
	var tm *Timer
	tm = NewTimer(e, func(*Engine) {
		n++
		if n < b.N {
			tm.Reset(Millisecond)
		}
	})
	b.ResetTimer()
	tm.Reset(Millisecond)
	e.Run()
}

// BenchmarkEngineFarSpread schedules a batch of 256 events spread
// uniformly over 2^44 ns (~4.9 simulated hours) and drains it: the
// deepest heap of these benchmarks, with no locality between neighbours.
func BenchmarkEngineFarSpread(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	r := NewRNG(1)
	delays := make([]Time, 256)
	for i := range delays {
		delays[i] = Time(r.Uint64() & (1<<44 - 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Now() > Time(1)<<60 {
			e = New() // keep now+delay clear of int64 overflow
		}
		for _, d := range delays {
			e.After(d, fn)
		}
		e.Run()
	}
}

// BenchmarkEngineSelfSchedule is the tightest possible event loop: one
// event rescheduling itself via a pre-bound handler. This bounds engine
// dispatch overhead per event.
func BenchmarkEngineSelfSchedule(b *testing.B) {
	e := New()
	n := 0
	var h selfScheduler
	h.fire = func(eng *Engine) {
		n++
		if n < b.N {
			eng.AfterHandler(1, &h)
		}
	}
	b.ResetTimer()
	e.AtHandler(0, &h)
	e.Run()
}

type selfScheduler struct{ fire Handler }

func (s *selfScheduler) HandleEvent(e *Engine) { s.fire(e) }

// BenchmarkEngineMixedHorizon mixes short, medium, and far-future events,
// approximating a full simulation's spread of RTOs, pacing ticks, and
// iteration deadlines.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	r := NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Now() > Time(1)<<60 {
			e = New() // keep now+delay clear of int64 overflow
		}
		for k := 0; k < 32; k++ {
			e.After(delayFor(r), fn)
		}
		e.Run()
	}
}

// hopDepth is the packet tier's measured event-heap depth (the 2-job
// gpt2 dumbbell's max_heap_depth in exact_figures.json).
const hopDepth = 14

// hop is one in-flight packet's next-hop event: each fire counts itself
// and, until the budget runs out, schedules the next hop delay later. A
// non-nil rto is re-armed on every hop, as an ACK re-arms a sender's
// retransmission timer.
type hop struct {
	n     *int
	limit int
	delay Time
	rto   *Timer
}

func (h *hop) HandleEvent(e *Engine) {
	*h.n++
	if h.rto != nil {
		h.rto.Reset(200 * Millisecond)
	}
	if *h.n < h.limit {
		e.AfterHandler(h.delay, h)
	}
}

// runHops fires about b.N hops of hopDepth interleaved chains with
// distinct periods, so each handler schedules its successor among
// hopDepth-1 other pending events. With rearm, every hop also re-arms
// one armed RTO-style timer, as a TCP sender does on every ACK.
func runHops(b *testing.B, rearm bool) {
	e := New()
	var rto *Timer
	if rearm {
		rto = NewTimer(e, func(*Engine) {})
		rto.Reset(200 * Millisecond)
	}
	n := 0
	hops := make([]hop, hopDepth)
	for i := range hops {
		hops[i] = hop{n: &n, limit: b.N, delay: Time(1000 + 37*i), rto: rto}
	}
	b.ResetTimer()
	for i := range hops {
		e.AfterHandler(Time(i), &hops[i])
	}
	e.Run()
}

// BenchmarkEngineHopChain is the packet path's dispatch pattern: every
// fired event schedules the next hop among about hopDepth pending
// events.
func BenchmarkEngineHopChain(b *testing.B) { runHops(b, false) }

// BenchmarkTimerRearm is the hop chain plus an armed RTO-style timer
// re-armed on every hop.
func BenchmarkTimerRearm(b *testing.B) { runHops(b, true) }
