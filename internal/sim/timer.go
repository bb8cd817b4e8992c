package sim

// Timer is a restartable one-shot timer bound to an Engine, modeled after
// the retransmission timers a transport protocol needs: it can be armed,
// re-armed (which supersedes the previous deadline), and stopped. The zero
// value is unusable; create timers with NewTimer.
type Timer struct {
	e      *Engine
	fn     Handler
	id     EventID
	armed  bool
	expiry Time
}

// NewTimer returns a stopped timer that will invoke fn when it expires.
func NewTimer(e *Engine, fn Handler) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	return &Timer{e: e, fn: fn}
}

// Reset arms the timer to fire d from now, replacing any pending expiry.
// The timer schedules itself as an EventHandler, so re-arming (the common
// RTO/pacing pattern) allocates nothing. Re-arming a pending timer
// re-keys its event in place: it takes the next sequence number and the
// new time and sifts once, which orders it exactly as Stop followed by a
// fresh schedule would, and the previous EventID goes stale.
//
// hot
func (t *Timer) Reset(d Time) {
	if d < 0 {
		panicNegative(d)
	}
	t.expiry = t.e.now + d
	if t.armed {
		t.id = t.e.rekey(t.id, t.expiry)
		return
	}
	t.id = t.e.AtHandler(t.expiry, t)
	t.armed = true
}

// HandleEvent fires the timer. It implements EventHandler; simulation
// code never calls it directly.
func (t *Timer) HandleEvent(e *Engine) {
	t.armed = false
	t.fn(e)
}

// Stop disarms the timer. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() {
	if t.armed {
		t.e.Cancel(t.id)
		t.armed = false
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.armed }

// Expiry returns the absolute time the timer will fire. Only meaningful
// while Armed.
func (t *Timer) Expiry() Time { return t.expiry }
