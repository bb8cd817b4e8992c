package sim

// Differential testing of the event-heap engine against the legacy
// container/heap engine, an independent (at, seq) oracle. The two implementations are driven
// in lockstep through randomized schedule/cancel/step/run-until op
// streams; they must agree on the execution order of every event (the
// (at, seq) FIFO contract), on Now, and on Pending() after every step.

import (
	"container/heap"
	"fmt"
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

// diffHarness drives the production and legacy engines in lockstep and checks
// every observable after every operation.
type diffHarness struct {
	t      *testing.T
	eng    *Engine
	legacy *legacyEngine

	engLog    []int
	legacyLog []int

	// Parallel outstanding-event tables: index i in both slices is the
	// same logical event.
	engIDs    []EventID
	legacyIDs []*legacyEvent

	nextLabel int
}

func newDiffHarness(t *testing.T) *diffHarness {
	return &diffHarness{t: t, eng: New(), legacy: &legacyEngine{}}
}

// schedule registers the same event (delay, optional self-respawn budget)
// in both engines. Respawning events schedule a child from inside their
// handler, exercising schedule-during-dispatch.
func (h *diffHarness) schedule(delay Time, respawn int, respawnDelay Time) {
	label := h.nextLabel
	h.nextLabel++
	// Each engine gets its own respawn budget: a shared captured counter
	// would be decremented by whichever engine steps first and desync the
	// other.
	eRespawn, lRespawn := respawn, respawn
	var efn func(*Engine)
	var lfn func(*legacyEngine)
	efn = func(e *Engine) {
		h.engLog = append(h.engLog, label)
		if eRespawn > 0 {
			eRespawn--
			e.After(clampDelay(e.Now(), respawnDelay), efn)
		}
	}
	lfn = func(e *legacyEngine) {
		h.legacyLog = append(h.legacyLog, label)
		if lRespawn > 0 {
			lRespawn--
			e.At(e.now+clampDelay(e.now, respawnDelay), lfn)
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
				switch r.Intn(10) {
				case 0, 1, 2, 3: // schedule-heavy mix
					respawn := 0
					if r.Intn(4) == 0 {
						respawn = r.Intn(3)
					}
					h.schedule(delayFor(r), respawn, delayFor(r))
				case 4, 5:
					h.cancel(r.Intn(1 << 20))
				case 6, 7:
					h.step()
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("op stream too long")
		}
		h := newDiffHarness(t)
		// Each byte is one op: top 2 bits select the kind, low 6 bits
		// seed a per-op RNG so delays are deterministic in the input.
		// Schedule byte 0x3f schedules at MaxTime instead.
		for i, b := range data {
			r := NewRNG(uint64(b&0x3f)*0x9e3779b97f4a7c15 + uint64(i))
			switch b >> 6 {
			case 0:
				if b == 0x3f {
					h.schedule(MaxTime-h.eng.Now(), 0, 0)
					break
				}
				h.schedule(delayFor(r), int(b)%3, delayFor(r))
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
