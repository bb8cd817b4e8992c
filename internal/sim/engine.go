// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in integer nanoseconds and a
// hierarchical timer wheel of scheduled events. Events scheduled for the same
// instant fire in the order they were scheduled, which makes runs reproducible
// regardless of map iteration order or goroutine scheduling. Nothing in this
// package (or in any simulation code built on it) reads the wall clock.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// Timer-wheel geometry: six levels of 256 slots indexed by successive
// bytes of the absolute firing time, covering 2^48 ns (~3.3 simulated
// days) ahead of the wheel cursor. Events beyond that horizon wait in a
// small overflow heap.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelLevels = 6
	wheelWords  = wheelSlots / 64
)

// event is an intrusive, free-listed timer-wheel node. The engine owns a
// private pool of them; steady-state schedule/cancel/reschedule traffic
// allocates nothing.
type event struct {
	at  Time
	seq uint64 // insertion order; breaks same-instant ties deterministically
	fn  Handler
	h   EventHandler

	prev, next *event // intrusive doubly-linked slot list (next doubles as the free-list link)
	gen        uint64 // bumped on every release; stale EventIDs can never cancel a reused node
	level      int8   // wheel level, levelOverflow, or levelFree
	slot       uint8
	heapIdx    int32 // position in the overflow heap while level == levelOverflow
}

const (
	levelFree     int8 = -1
	levelOverflow int8 = -2
)

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid and safe to Cancel (a no-op). IDs are generation-
// checked: once the event fires or is canceled, the ID goes stale and
// can never affect a later event that reuses the same pooled node.
type EventID struct {
	ev  *event
	gen uint64
}

type slotList struct{ head, tail *event }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	cur     Time // wheel cursor: ≤ now and ≤ every scheduled wheel event
	seq     uint64
	stopped bool
	fired   uint64
	pending int

	wheel    [wheelLevels][wheelSlots]slotList
	occupied [wheelLevels][wheelWords]uint64
	overflow []*event // (at, seq)-ordered binary heap for the far-future tier
	free     *event
}

// New returns a ready-to-run Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return e.pending }

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
	ev.prev = nil
	ev.level = levelFree
	ev.next = e.free
	e.free = ev
}

// schedule places ev into the wheel (or the overflow tier) according to
// its absolute time, relative to the wheel cursor.
//
// hot
func (e *Engine) schedule(ev *event) {
	d := uint64(ev.at ^ e.cur)
	if d>>(wheelBits*wheelLevels) != 0 {
		ev.level = levelOverflow
		e.overflowPush(ev)
	} else {
		level := 0
		if d != 0 {
			level = (bits.Len64(d) - 1) >> 3
		}
		slot := uint8(ev.at >> (level * wheelBits))
		ev.level = int8(level)
		ev.slot = slot
		l := &e.wheel[level][slot]
		if l.tail == nil {
			l.head, l.tail = ev, ev
			e.occupied[level][slot>>6] |= 1 << (slot & 63)
		} else {
			ev.prev = l.tail
			l.tail.next = ev
			l.tail = ev
		}
	}
	e.pending++
}

// unlink removes a wheel-resident event from its slot list.
//
// hot
func (e *Engine) unlink(ev *event) {
	l := &e.wheel[ev.level][ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	if l.head == nil {
		e.occupied[ev.level][ev.slot>>6] &^= 1 << (ev.slot & 63)
	}
	ev.prev, ev.next = nil, nil
}

// firstOccupied returns the lowest occupied slot index ≥ from at the
// given level, or -1.
//
// hot
func (e *Engine) firstOccupied(level, from int) int {
	w := from >> 6
	if w >= wheelWords {
		return -1
	}
	word := e.occupied[level][w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w == wheelWords {
			return -1
		}
		word = e.occupied[level][w]
	}
}

// cascade redistributes one higher-level slot down the wheel, advancing
// the cursor to the slot's block base. Every event re-lands at a lower
// level, preserving relative (and therefore FIFO) order.
//
// hot
func (e *Engine) cascade(level, slot int, base Time) {
	e.cur = base
	l := &e.wheel[level][slot]
	ev := l.head
	l.head, l.tail = nil, nil
	e.occupied[level][slot>>6] &^= 1 << (slot & 63)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next = nil, nil
		e.pending-- // schedule re-increments
		e.schedule(ev)
		ev = next
	}
}

// popLE removes and returns the earliest scheduled event with firing
// time ≤ limit, or nil. Ties between the wheel and the overflow tier
// break on (at, seq), exactly as a single binary heap would. The wheel
// cursor never advances past limit (or past an overflow event that fires
// first), so the engine can keep accepting events at any time ≥ Now.
//
// hot
func (e *Engine) popLE(limit Time) *event {
	for {
		var of *event
		if len(e.overflow) > 0 {
			of = e.overflow[0]
		}
		// Level 0: every event in a slot shares one exact timestamp and
		// the list is in seq order, so the head of the first occupied
		// slot at or after the cursor is the wheel minimum.
		if s := e.firstOccupied(0, int(uint8(e.cur))); s >= 0 {
			ev := e.wheel[0][s].head
			if of != nil && (of.at < ev.at || (of.at == ev.at && of.seq < ev.seq)) {
				if of.at > limit {
					return nil
				}
				e.overflowPop()
				return of
			}
			if ev.at > limit {
				return nil
			}
			e.unlink(ev)
			e.pending--
			return ev
		}
		// Level 0 exhausted for the current block: cascade the nearest
		// occupied higher-level slot — unless the overflow head or the
		// limit comes first, in which case the cursor must not move.
		cascaded := false
		for level := 1; level < wheelLevels; level++ {
			s := e.firstOccupied(level, int(uint8(e.cur>>(level*wheelBits)))+1)
			if s < 0 {
				continue
			}
			span := Time(1) << ((level + 1) * wheelBits)
			base := e.cur&^(span-1) | Time(s)<<(level*wheelBits)
			if of != nil && of.at < base {
				if of.at > limit {
					return nil
				}
				e.overflowPop()
				return of
			}
			if base > limit {
				return nil
			}
			e.cascade(level, s, base)
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Wheel empty: only the overflow tier remains.
		if of == nil || of.at > limit {
			return nil
		}
		e.overflowPop()
		return of
	}
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
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.schedule(ev)
	return EventID{ev, ev.gen}
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
	ev.at = t
	ev.seq = e.seq
	ev.h = h
	e.seq++
	e.schedule(ev)
	return EventID{ev, ev.gen}
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
	if ev.level == levelOverflow {
		e.overflowRemove(ev.heapIdx)
	} else {
		e.unlink(ev)
	}
	e.pending--
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
	for !e.stopped {
		ev := e.popLE(deadline)
		if ev == nil {
			break
		}
		e.now = ev.at
		e.fired++
		fn, h := ev.fn, ev.h
		e.release(ev)
		if h != nil {
			h.HandleEvent(e)
		} else {
			fn(e)
		}
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
	ev := e.popLE(MaxTime)
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	fn, h := ev.fn, ev.h
	e.release(ev)
	if h != nil {
		h.HandleEvent(e)
	} else {
		fn(e)
	}
	return true
}

// Overflow tier: a hand-rolled (at, seq) binary min-heap for events
// beyond the wheel horizon. Node positions are tracked in heapIdx so
// Cancel stays O(log n) without tombstones.

// hot
func (e *Engine) overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// hot
func (e *Engine) overflowPush(ev *event) {
	ev.heapIdx = int32(len(e.overflow))
	e.overflow = append(e.overflow, ev)
	e.overflowUp(int(ev.heapIdx))
}

// hot
func (e *Engine) overflowPop() *event {
	ev := e.overflow[0]
	e.overflowRemove(0)
	e.pending--
	return ev
}

// hot
func (e *Engine) overflowRemove(i int32) {
	n := len(e.overflow) - 1
	last := e.overflow[n]
	e.overflow[n] = nil
	e.overflow = e.overflow[:n]
	if int(i) == n {
		return
	}
	e.overflow[i] = last
	last.heapIdx = i
	e.overflowDown(int(i))
	e.overflowUp(int(i))
}

// hot
func (e *Engine) overflowUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.overflowLess(e.overflow[i], e.overflow[parent]) {
			break
		}
		e.overflowSwap(i, parent)
		i = parent
	}
}

// hot
func (e *Engine) overflowDown(i int) {
	n := len(e.overflow)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.overflowLess(e.overflow[right], e.overflow[left]) {
			least = right
		}
		if !e.overflowLess(e.overflow[least], e.overflow[i]) {
			return
		}
		e.overflowSwap(i, least)
		i = least
	}
}

// hot
func (e *Engine) overflowSwap(i, j int) {
	e.overflow[i], e.overflow[j] = e.overflow[j], e.overflow[i]
	e.overflow[i].heapIdx = int32(i)
	e.overflow[j].heapIdx = int32(j)
}
