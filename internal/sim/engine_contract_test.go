package sim

import (
	"slices"
	"testing"
)

// Engine contract tests: Cancel/Stop interaction, generation-checked
// EventIDs, far-future ordering, RunUntil deadlines and the alloc-free
// steady state.

// TestCancelAfterStop pins the interaction between Stop and Cancel: after
// a handler stops the run, every still-pending event can be canceled, the
// cancellations report true exactly once, and a resumed run fires none of
// them.
func TestCancelAfterStop(t *testing.T) {
	e := New()
	var fired []int
	e.At(10, func(e *Engine) {
		fired = append(fired, 1)
		e.Stop()
	})
	var ids []EventID
	for i := 2; i <= 5; i++ {
		i := i
		ids = append(ids, e.At(Time(10*i), func(*Engine) {
			fired = append(fired, i)
		}))
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("run before stop fired %v, want [1]", fired)
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d after Stop, want 4", e.Pending())
	}
	for i, id := range ids {
		if !e.Cancel(id) {
			t.Errorf("Cancel(#%d) after Stop = false, want true", i)
		}
		if e.Cancel(id) {
			t.Errorf("second Cancel(#%d) = true, want false", i)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after canceling all, want 0", e.Pending())
	}
	if end := e.Run(); end != 10 {
		t.Errorf("resumed run ended at %v, want 10 (no events left)", end)
	}
	if len(fired) != 1 {
		t.Errorf("canceled events fired anyway: %v", fired)
	}
}

// TestCancelDuringRun pins Cancel called from inside a handler, against
// events at the same instant and in the future — both must be suppressed,
// and canceling the currently-executing event must report false (it has
// already fired).
func TestCancelDuringRun(t *testing.T) {
	e := New()
	var fired []string
	var self, sameTime, future EventID
	self = e.At(10, func(e *Engine) {
		fired = append(fired, "killer")
		if e.Cancel(self) {
			t.Error("canceling the executing event reported true")
		}
		if !e.Cancel(sameTime) {
			t.Error("canceling a same-instant pending event reported false")
		}
		if !e.Cancel(future) {
			t.Error("canceling a future event reported false")
		}
	})
	sameTime = e.At(10, func(*Engine) { fired = append(fired, "sameTime") })
	future = e.At(1<<40, func(*Engine) { fired = append(fired, "future") })
	e.At(20, func(*Engine) { fired = append(fired, "survivor") })
	e.Run()
	if want := []string{"killer", "survivor"}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// TestStaleEventIDAfterReuse verifies the generation check: once an event
// fires, its EventID must never cancel a later event that reuses the same
// pooled node.
func TestStaleEventIDAfterReuse(t *testing.T) {
	e := New()
	stale := e.At(1, func(*Engine) {})
	e.Run()
	// The engine's free list now holds the node from the fired event; the
	// next schedule reuses it.
	fired := false
	e.At(2, func(*Engine) { fired = true })
	if e.Cancel(stale) {
		t.Error("stale EventID canceled a reused node")
	}
	e.Run()
	if !fired {
		t.Error("event on reused node never fired")
	}
}

// TestFarFutureOrdering mixes near events with far-future ones (2^52 ns,
// about 52 simulated days, ahead) and checks global firing order,
// including FIFO ties at a far-future instant.
func TestFarFutureOrdering(t *testing.T) {
	e := New()
	var fired []int
	record := func(label int) Handler {
		return func(*Engine) { fired = append(fired, label) }
	}
	far := Time(1) << 52
	e.At(far+5, record(4))
	e.At(100, record(1))
	e.At(far, record(3))
	e.At(far+5, record(5)) // same instant as label 4, scheduled later
	e.At(200, record(2))
	if end := e.Run(); end != far+5 {
		t.Fatalf("run ended at %v, want %v", end, far+5)
	}
	for i, want := range []int{1, 2, 3, 4, 5} {
		if fired[i] != want {
			t.Fatalf("firing order %v, want [1 2 3 4 5]", fired)
		}
	}
}

// TestRunUntilCursorDoesNotOvershoot is a RunUntil-deadline regression
// test: stopping at a deadline in an empty region must leave the engine
// able to accept and fire events scheduled between the deadline and the
// next far-future pending event.
func TestRunUntilCursorDoesNotOvershoot(t *testing.T) {
	e := New()
	var fired []int
	// One event far in the future, well beyond the deadline.
	e.At(1<<40, func(*Engine) { fired = append(fired, 2) })
	if now := e.RunUntil(1 << 20); now != 1<<20 {
		t.Fatalf("RunUntil ended at %v, want %v", now, Time(1)<<20)
	}
	// Scheduling between the deadline and the pending event must work and
	// fire first. If RunUntil had advanced past the deadline, this would
	// either panic or fire out of order.
	e.At(1<<30, func(*Engine) { fired = append(fired, 1) })
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired %v, want [1 2]", fired)
	}
}

// TestRunUntilOverflowBoundary checks that a far-future event exactly at
// the deadline fires, and one past it stays pending.
func TestRunUntilOverflowBoundary(t *testing.T) {
	e := New()
	far := Time(1) << 50
	var fired int
	e.At(far, func(*Engine) { fired++ })
	e.At(far+1, func(*Engine) { fired++ })
	e.RunUntil(far)
	if fired != 1 || e.Pending() != 1 {
		t.Fatalf("fired=%d pending=%d at deadline, want 1 and 1", fired, e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired=%d after drain, want 2", fired)
	}
}

// rearmOrder runs a same-instant tie scenario around a timer that is
// re-armed while armed, once from the top level and once from inside a
// handler, and returns the firing order. viaStop re-arms with Stop
// followed by Reset instead of Reset alone.
func rearmOrder(viaStop bool) []string {
	e := New()
	var fired []string
	record := func(label string) Handler {
		return func(*Engine) { fired = append(fired, label) }
	}
	tm := NewTimer(e, record("timer"))
	rearm := func(d Time) {
		if viaStop {
			tm.Stop()
		}
		tm.Reset(d)
	}
	e.At(10, record("a"))
	tm.Reset(10)
	e.At(10, record("b"))
	rearm(10) // behind b, ahead of c0
	e.At(10, record("c0"))
	e.At(20, record("d"))
	e.At(5, func(e *Engine) {
		e.At(10, record("c")) // fills the fired event's hole
		rearm(5)              // behind c, ahead of e
		e.At(10, record("e"))
	})
	e.Run()
	return fired
}

// TestTimerRearmMatchesStopReset pins the in-place re-arm: re-arming an
// armed timer orders it among same-instant events exactly as Stop
// followed by Reset does, behind every event scheduled before the
// re-arm and ahead of every event scheduled after it.
func TestTimerRearmMatchesStopReset(t *testing.T) {
	want := []string{"a", "b", "c0", "c", "timer", "e", "d"}
	for _, viaStop := range []bool{false, true} {
		if got := rearmOrder(viaStop); !slices.Equal(got, want) {
			t.Errorf("viaStop=%v: fired %v, want %v", viaStop, got, want)
		}
	}
}

// TestTimerRearmStaleEventID checks that re-arming retires the timer's
// previous EventID: it cannot cancel the re-armed timer, which fires
// once at its new expiry.
func TestTimerRearmStaleEventID(t *testing.T) {
	e := New()
	var firedAt []Time
	tm := NewTimer(e, func(e *Engine) { firedAt = append(firedAt, e.Now()) })
	tm.Reset(10)
	stale := tm.id
	tm.Reset(20)
	if e.Cancel(stale) {
		t.Error("EventID from before the re-arm canceled the timer")
	}
	if !tm.Armed() || e.Pending() != 1 {
		t.Fatalf("armed=%v pending=%d after re-arm, want true and 1", tm.Armed(), e.Pending())
	}
	e.Run()
	if len(firedAt) != 1 || firedAt[0] != 20 {
		t.Errorf("timer fired at %v, want [20ns]", firedAt)
	}
}

// TestTimerResetNegativeDelayPanics pins Reset's panic message for a
// negative delay, on a stopped and on an armed timer.
func TestTimerResetNegativeDelayPanics(t *testing.T) {
	for _, armed := range []bool{false, true} {
		func() {
			tm := NewTimer(New(), func(*Engine) {})
			if armed {
				tm.Reset(10)
			}
			defer func() {
				if r := recover(); r != "sim: negative delay -1ns" {
					t.Errorf("armed=%v: Reset(-1) panicked with %v, want %q", armed, r, "sim: negative delay -1ns")
				}
			}()
			tm.Reset(-1)
		}()
	}
}

// TestEngineReschedulingAllocFree pins the free-list contract: a steady
// schedule→fire→reschedule loop (the RTO-timer pattern) performs zero
// heap allocations once warmed up.
func TestEngineReschedulingAllocFree(t *testing.T) {
	e := New()
	tick := 0
	var tm *Timer
	tm = NewTimer(e, func(*Engine) {
		tick++
		if tick < 1000 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond) // warm the pool
	allocs := testing.AllocsPerRun(1, func() {
		e.Run()
		tick = 0
		tm.Reset(Millisecond)
	})
	// One Run executes 1000 timer fires and 999 reschedules; anything
	// beyond a stray allocation means the pool is not being reused.
	if allocs > 1 {
		t.Errorf("rescheduling loop allocated %v times per run, want ~0", allocs)
	}
}

// TestEngineCancelChurnAllocFree pins the schedule+cancel churn of
// armed-then-disarmed timers: once the event pool and the heap slice
// have grown to the working-set size, scheduling and canceling a batch
// allocates nothing.
func TestEngineCancelChurnAllocFree(t *testing.T) {
	e := New()
	fn := Handler(func(*Engine) {})
	var ids [64]EventID
	churn := func() {
		for k := range ids {
			ids[k] = e.After(Time(k%7+1)*Microsecond, fn)
		}
		// Cancel from both ends toward the middle so removals hit the
		// root, the last slot and interior positions.
		for lo, hi := 0, len(ids)-1; lo <= hi; lo, hi = lo+1, hi-1 {
			e.Cancel(ids[hi])
			if lo != hi {
				e.Cancel(ids[lo])
			}
		}
	}
	churn() // warm the pool and the heap slice
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Errorf("schedule+cancel churn allocated %v times per batch, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after canceling every event, want 0", e.Pending())
	}
}
