// Package obs is the simulator's runtime self-metrics layer: where
// internal/telemetry observes the simulated system (cwnd, drops,
// iteration boundaries), obs observes the simulator itself — the
// scheduler work a run did and how deep its event heap grew — and owns
// the repository's one wall-clock read and its exact allocation counter.
//
// The design contract is that obs is strictly out-of-band: nothing here
// feeds back into a simulation. Collectors never touch the engine clock,
// the RNG streams, or the telemetry recorder, so a run with a collector
// attached produces byte-identical traces and DeepEqual Results to the
// same run without one (internal/backend's obs tests pin this). That is
// also why obs is the single package allowed to read the wall clock —
// see clock.go.
//
// Collectors travel by context (WithCollector/FromContext), mirroring the
// telemetry seam, and every span method is safe on a nil receiver so
// instrumented code needs no conditionals. Unlike a telemetry Recorder —
// owned by one run, one goroutine — a Collector may be shared by a
// harness worker pool, so its mutations are mutex-guarded.
package obs

import (
	"context"
	"sync"

	"mltcp/internal/sim"
)

// RunStats describes one backend run, measured from the outside. Every
// field is a deterministic function of (scenario, seed).
type RunStats struct {
	// Backend is the fidelity that produced the run ("fluid", "packet",
	// "learned").
	Backend string
	// SimDuration is the simulated horizon the run covered.
	SimDuration sim.Time
	// Events counts the run's scheduler work: discrete events fired for
	// the packet engine, integration steps for the fluid solver, head
	// evaluations for the learned tier.
	Events uint64
	// MaxHeapDepth is the largest pending-event count observed on the
	// engine's event heap (0 for the heap-less fluid and learned tiers).
	MaxHeapDepth int
}

// Collector accumulates RunStats across runs. A nil *Collector is the
// disabled state: every method (and every method of the spans it hands
// out) is a no-op, so instrumented paths cost one nil check when
// observation is off.
type Collector struct {
	mu   sync.Mutex
	runs []RunStats
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Runs returns a copy of the collected run stats, in completion order.
func (c *Collector) Runs() []RunStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunStats, len(c.runs))
	copy(out, c.runs)
	return out
}

// RunSpan measures one backend run in flight. Obtain one from StartRun;
// all methods are nil-safe.
type RunSpan struct {
	c     *Collector
	stats RunStats
}

// StartRun opens a measurement span for one backend run (nil collector →
// nil span, every span method a no-op).
func (c *Collector) StartRun(backendName string) *RunSpan {
	if c == nil {
		return nil
	}
	return &RunSpan{c: c, stats: RunStats{Backend: backendName}}
}

// Heartbeat samples mid-run state; the packet backend calls it at
// integration-chunk boundaries with the engine's current event-heap
// depth.
func (s *RunSpan) Heartbeat(pendingEvents int) {
	if s == nil {
		return
	}
	if pendingEvents > s.stats.MaxHeapDepth {
		s.stats.MaxHeapDepth = pendingEvents
	}
}

// Finish closes the span: events is the run's total scheduler work
// (engine events fired / fluid steps / head evaluations), simDur the
// simulated horizon covered. The completed RunStats is appended to the
// collector.
func (s *RunSpan) Finish(events uint64, simDur sim.Time) {
	if s == nil {
		return
	}
	s.stats.Events = events
	s.stats.SimDuration = simDur
	s.c.mu.Lock()
	s.c.runs = append(s.c.runs, s.stats)
	s.c.mu.Unlock()
}

type ctxKey struct{}

// WithCollector returns a context carrying the collector — the seam
// through which backends receive the self-metrics layer without changing
// their interfaces (mirroring telemetry.WithRecorder).
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext extracts the collector from the context (nil — observation
// disabled — when absent).
func FromContext(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}
