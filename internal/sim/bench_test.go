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

// BenchmarkEngineReschedule measures the Timer Reset loop: one pooled
// event canceled and re-armed per fire, zero allocations in steady state.
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
