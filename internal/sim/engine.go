// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in integer nanoseconds and a
// 4-ary min-heap of scheduled events. Events scheduled for the same
// instant fire in the order they were scheduled, which makes runs reproducible
// regardless of map iteration order or goroutine scheduling. Nothing in this
// package (or in any simulation code built on it) reads the wall clock.
//
// Each fired event costs one heap sift. While a handler runs, the fired
// event's root slot stays in the heap as a hole; the handler's first
// schedule writes into it and sifts down once, and only if the handler
// scheduled nothing is the hole removed when it returns. A Timer re-armed
// while pending is re-keyed in place (a fresh sequence number, one sift)
// instead of canceled and rescheduled. Both are exact: the heap orders on
// the strict total key (at, seq) and every schedule takes the next seq in
// the same order, so the pop sequence is the one a plain heap gives.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to prevent mixing
// wall-clock durations into simulation arithmetic by accident.
type Time int64

// Common time constants mirroring the time package.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time. It is used as an
// "infinitely far" horizon for runs bounded only by event exhaustion.
const MaxTime = Time(math.MaxInt64)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration of the same nanosecond count.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a simulation Time span.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts a floating-point number of seconds to a Time,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Scale returns t multiplied by the dimensionless factor k, truncating
// toward zero. It is the canonical way to scale a duration by a float
// (duty cycles, jitter factors) without open-coding Time(float64(t)*k).
func (t Time) Scale(k float64) Time { return Time(float64(t) * k) }

// Div returns t divided by the dimensionless divisor k, truncating
// toward zero.
func (t Time) Div(k float64) Time { return Time(float64(t) / k) }

// Ratio returns the dimensionless ratio num/den in full float precision.
// Use it instead of float64(num)/float64(den) or the truncating integer
// division num/den when a fractional ratio of two durations is wanted.
func Ratio(num, den Time) float64 { return float64(num) / float64(den) }

// String formats t like a time.Duration ("1.5s", "250µs", ...).
func (t Time) String() string { return time.Duration(t).String() }

// Handler is the callback invoked when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// EventHandler is the allocation-free alternative to Handler: a pre-bound
// struct (a timer, a link's delivery record) schedules itself with
// AtHandler/AfterHandler and is invoked by pointer, so rescheduling the
// same object allocates nothing. Hot paths prefer it over closures.
type EventHandler interface {
	HandleEvent(e *Engine)
}

// event is a free-listed node holding one scheduled callback. The engine
// owns a private pool of them; steady-state schedule/cancel/reschedule
// traffic allocates nothing.
type event struct {
	fn   Handler
	h    EventHandler
	next *event // free-list link
	gen  uint64 // bumped on every release; stale EventIDs can never cancel a reused node
	idx  int32  // position in the heap while scheduled
}

// entry is one heap slot. The (at, seq) key lives inline so sifting
// compares keys without dereferencing events; seq (insertion order)
// breaks same-instant ties, making (at, seq) a strict total order.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid and safe to Cancel (a no-op). IDs are generation-
// checked: once the event fires or is canceled, the ID goes stale and
// can never affect a later event that reuses the same pooled node.
type EventID struct {
	ev  *event
	gen uint64
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	fired   uint64

	heap []entry // 4-ary min-heap ordered by (at, seq)
	free *event
	// hole is set while heap[0] is the fired event's stale slot. Its key
	// is below every pending key, so sifts elsewhere never cross it.
	hole bool
}

// New returns a ready-to-run Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// hot
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// hot
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.h = nil
	ev.next = e.free
	e.free = ev
}

// less orders heap entries by firing time, then insertion order.
//
// hot
func less(a, b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push schedules ev at t under the next sequence number. Inside a
// handler the first schedule fills the fired event's hole at the root.
//
// hot
func (e *Engine) push(t Time, ev *event) EventID {
	x := entry{at: t, seq: e.seq, ev: ev}
	e.seq++
	if e.hole {
		e.hole = false
		e.down(0, x)
	} else {
		e.heap = append(e.heap, x)
		e.up(len(e.heap)-1, x)
	}
	return EventID{ev, ev.gen}
}

// up moves x from the hole at i toward the root until its parent is
// not greater, then stores it there.
//
// hot
func (e *Engine) up(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.idx = int32(i)
		i = p
	}
	h[i] = x
	x.ev.idx = int32(i)
}

// down moves x from the hole at i toward the leaves until no child is
// smaller, then stores it there.
//
// hot
func (e *Engine) down(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &x) {
			break
		}
		h[i] = h[m]
		h[i].ev.idx = int32(i)
		i = m
	}
	h[i] = x
	x.ev.idx = int32(i)
}

// remove deletes the entry at heap position i, refilling the hole with
// the last entry.
//
// hot
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	e.sift(i, last)
}

// sift stores x at heap position i, moving it up or down to restore
// the heap order.
//
// hot
func (e *Engine) sift(i int, x entry) {
	if i > 0 && less(&x, &e.heap[(i-1)>>2]) {
		e.up(i, x)
	} else {
		e.down(i, x)
	}
}

// closeHole removes a fired event's hole left at the root.
//
// hot
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.remove(0)
	}
}

// rekey moves the pending event id to fire at t under the next sequence
// number with one sift from its current slot, and returns its new ID;
// the old ID goes stale. It is exactly Cancel followed by a schedule of
// the same handler at t, which would take the same seq and reuse the
// same node at the next generation.
//
// hot
func (e *Engine) rekey(id EventID, t Time) EventID {
	ev := id.ev
	if ev == nil || ev.gen != id.gen {
		panic("sim: re-keying an event that is not pending")
	}
	if t < e.now {
		e.panicPast(t)
	}
	ev.gen++
	e.sift(int(ev.idx), entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return EventID{ev, ev.gen}
}

// panicPast and panicNegative hold the panic formatting — whose fmt
// arguments box — outside the //hot scheduling bodies.
func (e *Engine) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
}

func panicNegative(d Time) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it always indicates a logic error in simulation code, and
// silently clamping would hide causality violations.
//
// hot
func (e *Engine) At(t Time, fn Handler) EventID {
	if t < e.now {
		e.panicPast(t)
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := e.alloc()
	ev.fn = fn
	return e.push(t, ev)
}

// After schedules fn to run d after the current time.
//
// hot
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panicNegative(d)
	}
	return e.At(e.now+d, fn)
}

// AtHandler schedules h to run at absolute time t. It is the
// allocation-free counterpart of At for pre-bound handler objects.
//
// hot
func (e *Engine) AtHandler(t Time, h EventHandler) EventID {
	if t < e.now {
		e.panicPast(t)
	}
	if h == nil {
		panic("sim: scheduling nil handler")
	}
	ev := e.alloc()
	ev.h = h
	return e.push(t, ev)
}

// AfterHandler schedules h to run d after the current time.
//
// hot
func (e *Engine) AfterHandler(d Time, h EventHandler) EventID {
	if d < 0 {
		panicNegative(d)
	}
	return e.AtHandler(e.now+d, h)
}

// Cancel removes a scheduled event. Canceling an already-fired, already-
// canceled, or zero EventID is a no-op. It reports whether the event was
// actually pending.
//
// hot
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen {
		return false
	}
	e.remove(int(ev.idx))
	e.release(ev)
	return true
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final simulation time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with firing time <= deadline, in timestamp order.
// When it returns, Now is the deadline (if reached) or the time of the last
// event executed before Stop. Events scheduled beyond the deadline remain
// pending, so the simulation can be resumed with a later deadline.
//
// hot
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	e.closeHole()
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.fireNext()
	}
	if !e.stopped && deadline != MaxTime && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Step executes exactly one pending event and reports whether an event was
// executed.
//
// hot
func (e *Engine) Step() bool {
	e.closeHole()
	if len(e.heap) == 0 {
		return false
	}
	e.fireNext()
	return true
}

// fireNext fires the earliest event: it advances the clock, releases the
// node (so the handler may reschedule into it) and runs the handler with
// the event's root slot left in the heap as a hole. The handler's first
// schedule fills the hole with one sift down; if it schedules nothing,
// the hole is removed when it returns. Re-entrant Step/RunUntil close
// the hole first, and Pending does not count it.
//
// hot
func (e *Engine) fireNext() {
	top := e.heap[0]
	ev := top.ev
	e.now = top.at
	e.fired++
	fn, h := ev.fn, ev.h
	e.release(ev)
	e.hole = true
	if h != nil {
		h.HandleEvent(e)
	} else {
		fn(e)
	}
	e.closeHole()
}
