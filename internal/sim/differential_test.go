package sim

// Differential testing of the event-heap engine against the legacy
// container/heap engine, an independent (at, seq) oracle. The two implementations are driven
// in lockstep through randomized schedule/cancel/step/run-until op
// streams; they must agree on the execution order of every event (the
// (at, seq) FIFO contract), on Now, and on Pending() after every step.

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"
)

// legacyEngine is a frozen copy of an early container/heap engine. It
// exists only as the differential-test oracle; production code uses
// Engine.
type legacyEngine struct {
	now     Time
	seq     uint64
	heap    legacyHeap
	stopped bool
	fired   uint64
}

type legacyEvent struct {
	at   Time
	seq  uint64
	fn   func(*legacyEngine)
	idx  int
	dead bool
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *legacyHeap) Push(x any) {
	ev := x.(*legacyEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func (e *legacyEngine) Now() Time     { return e.now }
func (e *legacyEngine) Pending() int  { return len(e.heap) }
func (e *legacyEngine) Stop()         { e.stopped = true }
func (e *legacyEngine) Fired() uint64 { return e.fired }

func (e *legacyEngine) At(t Time, fn func(*legacyEngine)) *legacyEvent {
	if t < e.now {
		panic(fmt.Sprintf("legacy: scheduling event at %v before now %v", t, e.now))
	}
	ev := &legacyEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.heap, ev)
	return ev
}

func (e *legacyEngine) Cancel(ev *legacyEvent) bool {
	if ev == nil || ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	heap.Remove(&e.heap, ev.idx)
	return true
}

func (e *legacyEngine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		ev := e.heap[0]
		if ev.at > deadline {
			break
		}
		heap.Pop(&e.heap)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn(e)
	}
	if !e.stopped && deadline != MaxTime && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *legacyEngine) Step() bool {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(*legacyEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn(e)
		return true
	}
	return false
}

// legacyTimer is Timer as it was on the legacy engine: Reset cancels any
// pending expiry and schedules a fresh event.
type legacyTimer struct {
	ev    *legacyEvent
	armed bool
	fn    func(*legacyEngine)
}

func (t *legacyTimer) Reset(e *legacyEngine, d Time) {
	if t.armed {
		e.Cancel(t.ev)
	}
	t.armed = true
	t.ev = e.At(e.now+d, func(e *legacyEngine) {
		t.armed = false
		t.fn(e)
	})
}

// action is what a fired handler does besides logging its label and
// scheduling its children.
type action uint8

const (
	actNone    action = iota
	actFanOut         // schedule three children per respawn instead of one
	actCancel         // cancel another outstanding event
	actRearm          // re-arm a timer (in place, if it is armed)
	actStep           // call Step re-entrantly
	actPending        // record Pending() before and after scheduling children
	actStop           // call Stop
	actAll            // pending, cancel and re-arm, then fan out
	numActions
)

// behavior is one scheduled event's handler, identical in both engines.
type behavior struct {
	act     action
	respawn int  // how many times the handler schedules children
	delay   Time // the children's delay
	target  int  // actCancel: outstanding-event index; actRearm: timer index
	rearm   Time // actRearm: the timer's new delay
}

func (b behavior) has(a action) bool {
	return b.act == a || (b.act == actAll && a != actStep && a != actStop)
}

// diffEngine is what a handler's behaviour needs from either engine.
type diffEngine interface {
	Now() Time
	Pending() int
	Step() bool
	Stop()
}

// fire runs b's action on one engine before its children are scheduled,
// appending what the handler observes (Pending, Cancel and Step results)
// to obs. cancel and rearm act on that engine's half of the harness.
func (b behavior) fire(e diffEngine, obs *[]int, nIDs int, cancel func(int) bool, rearm func(int, Time)) {
	if b.has(actPending) {
		*obs = append(*obs, e.Pending())
	}
	if b.has(actCancel) && nIDs > 0 {
		*obs = append(*obs, boolInt(cancel(b.target%nIDs)))
	}
	if b.has(actRearm) {
		rearm(b.target%diffTimers, clampDelay(e.Now(), b.rearm))
	}
	if b.has(actStep) {
		*obs = append(*obs, boolInt(e.Step()))
	}
	if b.has(actStop) {
		e.Stop()
	}
}

func (b behavior) children() int {
	if b.has(actFanOut) {
		return 3
	}
	return 1
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// diffTimers is how many timers the harness re-arms.
const diffTimers = 4

// diffHarness drives the production and legacy engines in lockstep and checks
// every observable after every operation.
type diffHarness struct {
	t      *testing.T
	eng    *Engine
	legacy *legacyEngine

	engLog    []int
	legacyLog []int
	// What handlers observed from inside dispatch, in firing order.
	engObs    []int
	legacyObs []int

	// Parallel outstanding-event tables: index i in both slices is the
	// same logical event.
	engIDs    []EventID
	legacyIDs []*legacyEvent

	// Timer k logs label -(k+1) when it fires.
	engTimers    [diffTimers]*Timer
	legacyTimers [diffTimers]*legacyTimer

	nextLabel int
}

func newDiffHarness(t *testing.T) *diffHarness {
	h := &diffHarness{t: t, eng: New(), legacy: &legacyEngine{}}
	for k := range h.engTimers {
		label := -(k + 1)
		h.engTimers[k] = NewTimer(h.eng, func(*Engine) { h.engLog = append(h.engLog, label) })
		h.legacyTimers[k] = &legacyTimer{fn: func(*legacyEngine) { h.legacyLog = append(h.legacyLog, label) }}
	}
	return h
}

// schedule registers the same event in both engines, delay from now.
// When it fires, its handler runs b in each engine and, while its
// respawn budget lasts, schedules copies of itself from inside the
// handler, exercising schedule-during-dispatch.
func (h *diffHarness) schedule(delay Time, b behavior) {
	label := h.nextLabel
	h.nextLabel++
	// Each engine gets its own respawn budget: a shared captured counter
	// would be decremented by whichever engine steps first and desync the
	// other.
	eRespawn, lRespawn := b.respawn, b.respawn
	var efn func(*Engine)
	var lfn func(*legacyEngine)
	efn = func(e *Engine) {
		h.engLog = append(h.engLog, label)
		b.fire(e, &h.engObs, len(h.engIDs),
			func(i int) bool { return e.Cancel(h.engIDs[i]) },
			func(k int, d Time) { h.engTimers[k].Reset(d) })
		if eRespawn > 0 {
			eRespawn--
			for range b.children() {
				e.After(clampDelay(e.Now(), b.delay), efn)
			}
		}
		if b.has(actPending) {
			h.engObs = append(h.engObs, e.Pending())
		}
	}
	lfn = func(e *legacyEngine) {
		h.legacyLog = append(h.legacyLog, label)
		b.fire(e, &h.legacyObs, len(h.legacyIDs),
			func(i int) bool { return e.Cancel(h.legacyIDs[i]) },
			func(k int, d Time) { h.legacyTimers[k].Reset(e, d) })
		if lRespawn > 0 {
			lRespawn--
			for range b.children() {
				e.At(e.now+clampDelay(e.now, b.delay), lfn)
			}
		}
		if b.has(actPending) {
			h.legacyObs = append(h.legacyObs, e.Pending())
		}
	}
	delay = clampDelay(h.eng.Now(), delay)
	h.engIDs = append(h.engIDs, h.eng.After(delay, efn))
	h.legacyIDs = append(h.legacyIDs, h.legacy.At(h.legacy.Now()+delay, lfn))
}

// clampDelay caps d so that now+d stays ≤ MaxTime once an event at
// MaxTime has fired.
func clampDelay(now, d Time) Time { return min(d, MaxTime-now) }

func (h *diffHarness) cancel(i int) {
	if len(h.engIDs) == 0 {
		return
	}
	i %= len(h.engIDs)
	eg := h.eng.Cancel(h.engIDs[i])
	lg := h.legacy.Cancel(h.legacyIDs[i])
	if eg != lg {
		h.t.Fatalf("Cancel(#%d): engine=%v legacy=%v", i, eg, lg)
	}
	h.check("cancel")
}

// rearm resets timer k in both engines, delay from now.
func (h *diffHarness) rearm(k int, delay Time) {
	delay = clampDelay(h.eng.Now(), delay)
	h.engTimers[k%diffTimers].Reset(delay)
	h.legacyTimers[k%diffTimers].Reset(h.legacy, delay)
	h.check("rearm")
}

func (h *diffHarness) step() {
	eg := h.eng.Step()
	lg := h.legacy.Step()
	if eg != lg {
		h.t.Fatalf("Step: engine=%v legacy=%v", eg, lg)
	}
	h.check("step")
}

func (h *diffHarness) runUntil(delta Time) {
	deadline := h.eng.Now() + clampDelay(h.eng.Now(), delta)
	h.eng.RunUntil(deadline)
	h.legacy.RunUntil(deadline)
	h.check("runUntil")
}

func (h *diffHarness) drain() {
	// Drain via single steps so Pending is compared at every event
	// boundary, then confirm both report empty.
	for h.eng.Step() {
		if !h.legacy.Step() {
			h.t.Fatal("legacy drained before engine")
		}
		h.check("drain")
	}
	if h.legacy.Step() {
		h.t.Fatal("engine drained before legacy")
	}
	h.check("drained")
}

func (h *diffHarness) check(op string) {
	h.t.Helper()
	if h.eng.Now() != h.legacy.Now() {
		h.t.Fatalf("%s: Now diverged: engine=%v legacy=%v", op, h.eng.Now(), h.legacy.Now())
	}
	if h.eng.Pending() != h.legacy.Pending() {
		h.t.Fatalf("%s: Pending diverged: engine=%d legacy=%d", op, h.eng.Pending(), h.legacy.Pending())
	}
	if len(h.engLog) != len(h.legacyLog) {
		h.t.Fatalf("%s: fired %d (engine) vs %d (legacy) events", op, len(h.engLog), len(h.legacyLog))
	}
	for i := range h.engLog {
		if h.engLog[i] != h.legacyLog[i] {
			h.t.Fatalf("%s: execution order diverged at %d: engine=%v legacy=%v",
				op, i, h.engLog[i], h.legacyLog[i])
		}
	}
	if !slices.Equal(h.engObs, h.legacyObs) {
		h.t.Fatalf("%s: handlers observed %v (engine) vs %v (legacy)", op, h.engObs, h.legacyObs)
	}
	for k, tm := range h.engTimers {
		if tm.Armed() != h.legacyTimers[k].armed {
			h.t.Fatalf("%s: timer %d armed=%v (engine) vs %v (legacy)", op, k, tm.Armed(), h.legacyTimers[k].armed)
		}
	}
}

// delayFor maps a raw random value onto a delay distribution spanning
// every scale the engine sees: exact duplicates (FIFO ties), then one
// band per byte of delay, up to far-future times beyond 2^48 ns.
func delayFor(r *RNG) Time {
	switch r.Intn(8) {
	case 0:
		return 0 // same-instant FIFO ties
	case 1:
		return Time(r.Intn(256)) // < 256 ns
	case 2:
		return Time(r.Intn(1 << 16)) // < 66 µs
	case 3:
		return Time(r.Intn(1 << 24)) // < 17 ms
	case 4:
		return Time(r.Intn(1 << 32)) // < 4.3 s
	case 5:
		return Time(r.Intn(1 << 40)) // < 18 min
	case 6:
		return Time(r.Intn(1 << 47)) // < 1.6 days
	default:
		return Time(1)<<48 + Time(r.Intn(1<<50)) // 3 to 16 days
	}
}

func TestDifferentialRandomSchedules(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			r := NewRNG(uint64(trial)*0x9e3779b97f4a7c15 + 1)
			h := newDiffHarness(t)
			for op := 0; op < 200; op++ {
				switch r.Intn(11) {
				case 0, 1, 2, 3: // schedule-heavy mix
					b := behavior{act: action(r.Intn(int(numActions)))}
					if r.Intn(4) == 0 {
						b.respawn = r.Intn(3)
					}
					b.delay, b.target, b.rearm = delayFor(r), r.Intn(1<<20), delayFor(r)
					h.schedule(delayFor(r), b)
				case 4, 5:
					h.cancel(r.Intn(1 << 20))
				case 6, 7:
					h.step()
				case 8:
					h.rearm(r.Intn(diffTimers), delayFor(r))
				default:
					h.runUntil(delayFor(r))
				}
			}
			h.drain()
		})
	}
}

// FuzzEngineDifferential interprets the fuzz input as an op stream and
// replays it through both engines. go test runs the seed corpus; `go test
// -fuzz=FuzzEngineDifferential ./internal/sim` explores further.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xff})
	f.Add([]byte{0x10, 0x10, 0x10, 0x50, 0x90, 0xd0})       // same-time ties, cancel, step, run
	f.Add([]byte{0x07, 0x17, 0x27, 0x37, 0xc0, 0xc0, 0xc0}) // far-future spread
	f.Add([]byte{0x01, 0x41, 0x81, 0xc1, 0x02, 0x42, 0x82}) // interleaved schedule/cancel/step
	// Heap edge cases.
	f.Add([]byte{0x33, 0x09, 0x06, 0x40, 0x80})                                     // cancel the root
	f.Add([]byte{0x33, 0x31, 0x18, 0x36, 0x1e, 0x44, 0x80, 0xc0})                   // cancel the last slot
	f.Add([]byte{0x0f, 0x30, 0x0f, 0x00, 0x41, 0x80, 0x42, 0x80})                   // cancel inside a same-instant batch
	f.Add([]byte{0x3f, 0x34, 0x3f, 0x80, 0x40, 0xc0, 0x80, 0x80, 0x3f, 0x01, 0xc0}) // schedule at MaxTime
	// Handler actions: each seed fires at least one handler doing the
	// named thing while other events are pending.
	f.Add([]byte{0x03, 0x01, 0x04, 0xc0}) // 0 children, 1 child, 1 child
	f.Add([]byte{0x0e, 0x08, 0x80})       // 3 children per fire
	f.Add([]byte{0x04, 0x06, 0x17})       // cancel another outstanding event
	f.Add([]byte{0x1e, 0x1d, 0x1d})       // re-arm an armed timer, twice
	f.Add([]byte{0x04, 0x03, 0x20})       // re-entrant Step
	f.Add([]byte{0xc0, 0xc0, 0x2e})       // Pending() inside the handler
	f.Add([]byte{0x07, 0x04, 0xc2})       // child scheduled past the RunUntil deadline
	f.Add([]byte{0x37, 0x30, 0xc1})       // Stop with events due before the deadline
	f.Add([]byte{0x80, 0x3e, 0x3e})       // pending, cancel, re-arm and fan out together
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("op stream too long")
		}
		h := newDiffHarness(t)
		// Each byte is one op: top 2 bits select the kind, low 6 bits
		// seed a per-op RNG so delays are deterministic in the input.
		// A schedule byte's bits 3-5 pick its handler's action and the
		// byte mod 3 its respawn budget; byte 0x3f schedules a plain
		// event at MaxTime instead.
		for i, b := range data {
			r := NewRNG(uint64(b&0x3f)*0x9e3779b97f4a7c15 + uint64(i))
			switch b >> 6 {
			case 0:
				if b == 0x3f {
					h.schedule(MaxTime-h.eng.Now(), behavior{})
					break
				}
				delay := delayFor(r)
				bh := behavior{act: action(b >> 3), respawn: int(b) % 3, delay: delayFor(r)}
				bh.target, bh.rearm = r.Intn(64), delayFor(r)
				h.schedule(delay, bh)
			case 1:
				h.cancel(int(b & 0x3f))
			case 2:
				h.step()
			default:
				h.runUntil(delayFor(r))
			}
		}
		h.drain()
	})
}
