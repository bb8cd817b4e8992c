// Package harness runs experiment grids across a worker pool while
// preserving bit-for-bit determinism. Every sweep in internal/experiments
// is a pure function of (scenario parameters, seed), so grid points can run
// on any goroutine in any order as long as two invariants hold:
//
//  1. Each point draws randomness only from its own stream, derived from
//     (base seed, point index) via SplitMix64 (sim.DeriveSeed) — never from
//     shared or scheduling-order-dependent state.
//  2. Results land in a pre-sized slice indexed by point, so output order
//     is the grid order, independent of completion order.
//
// Under those rules Run(workers=1) and Run(workers=N) produce identical
// result slices, which the determinism tests in internal/experiments
// assert. The pool also survives misbehaving scenarios: a panic inside a
// point is captured and reported as that point's failure rather than
// crashing the sweep, a context cancellation stops dispatching new points,
// and an optional per-point timeout abandons stuck points.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mltcp/internal/obs"
	"mltcp/internal/sim"
)

// Config controls how a grid is executed. The zero value is valid: one
// worker per CPU, base seed 0, no timeout.
type Config struct {
	// Workers is the number of concurrent scenario goroutines. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// BaseSeed is the sweep-level seed. Point i receives the derived seed
	// sim.DeriveSeed(BaseSeed, i); scenarios that need randomness must use
	// it (or ignore it and seed explicitly) so results stay reproducible.
	BaseSeed uint64
	// PointTimeout bounds each point's wall-clock run time; zero disables.
	// A timed-out point is recorded as failed with context.DeadlineExceeded
	// and its goroutine is abandoned (the scenario context is cancelled, so
	// cooperative scenarios unwind promptly).
	PointTimeout time.Duration
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Point identifies one grid point handed to a scenario function.
type Point struct {
	// Index is the point's position in the grid, 0 ≤ Index < n.
	Index int
	// Seed is the point's derived stream seed, sim.DeriveSeed(base, Index).
	Seed uint64
}

// RNG returns a fresh deterministic generator for the point's stream. Each
// call returns an identical, independent generator.
func (p Point) RNG() *sim.RNG { return sim.NewRNG(p.Seed) }

// Result is one grid point's outcome.
type Result[T any] struct {
	// Index is the point's grid position (Results are already ordered by
	// it; the field survives filtering).
	Index int
	// Value is the scenario's return value when Err is nil.
	Value T
	// Err is the scenario error, the recovered panic (wrapped, with
	// Panicked set), context.DeadlineExceeded on point timeout, or the
	// context's error for points never started after cancellation.
	Err error
	// Panicked reports that Err was recovered from a panic.
	Panicked bool
	// Elapsed is the point's wall-clock run time (zero for skipped
	// points). Diagnostic only: it is excluded from determinism contracts.
	Elapsed time.Duration
}

// Scenario computes one grid point. It must derive any randomness it needs
// from pt.Seed (or use explicit fixed seeds) and must not mutate state
// shared with other points. ctx carries the sweep cancellation and, when
// Config.PointTimeout is set, the point deadline.
type Scenario[T any] func(ctx context.Context, pt Point) (T, error)

// Run executes n grid points over the worker pool and returns exactly n
// results ordered by point index. It never fails as a whole: per-point
// errors, panics, and timeouts are recorded in the corresponding Result,
// and points not yet started when ctx is cancelled are recorded with
// ctx's error.
func Run[T any](ctx context.Context, cfg Config, n int, fn Scenario[T]) []Result[T] {
	results := make([]Result[T], n)
	for i := range results {
		results[i].Index = i
	}
	if n == 0 {
		return results
	}
	workers := cfg.workers()
	if workers > n {
		workers = n
	}

	// Feed indices through a channel: workers pull the next point as they
	// free up, so an expensive point does not stall the rest of the grid.
	var wg sync.WaitGroup
	idx := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				// Record the never-started remainder. Points already
				// handed out keep running to completion.
				for j := i; j < n; j++ {
					results[j].Err = ctx.Err()
				}
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Writes are disjoint: worker goroutines only ever touch
				// results[i] for indices they pulled from the channel.
				results[i] = runPoint(ctx, cfg, i, fn)
			}
		}()
	}
	wg.Wait()
	return results
}

// runPoint executes one point with panic capture and the optional timeout.
func runPoint[T any](ctx context.Context, cfg Config, i int, fn Scenario[T]) Result[T] {
	res := Result[T]{Index: i}
	pt := Point{Index: i, Seed: sim.DeriveSeed(cfg.BaseSeed, uint64(i))}

	pctx := ctx
	if cfg.PointTimeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, cfg.PointTimeout)
		defer cancel()
	}

	sw := obs.StartTimer()
	done := make(chan Result[T], 1)
	go func() {
		r := Result[T]{Index: i}
		defer func() {
			if p := recover(); p != nil {
				r.Err = fmt.Errorf("harness: point %d panicked: %v", i, p)
				r.Panicked = true
			}
			done <- r
		}()
		r.Value, r.Err = fn(pctx, pt)
	}()

	if cfg.PointTimeout > 0 {
		select {
		case res = <-done:
		case <-pctx.Done():
			// The point overran (or the sweep was cancelled mid-point).
			// Abandon its goroutine — pctx is cancelled, so a cooperative
			// scenario unwinds — and report the cause.
			res.Err = pctx.Err()
		}
	} else {
		res = <-done
	}
	res.Index = i
	res.Elapsed = sw.Elapsed()
	return res
}

// Values unwraps a result slice into its ordered values, returning the
// first per-point error encountered (with its index) if any point failed.
func Values[T any](rs []Result[T]) ([]T, error) {
	out := make([]T, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			return nil, fmt.Errorf("harness: point %d: %w", r.Index, r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

// Map is the common path for infallible grids: Run + Values, panicking on
// any point failure. Experiment sweeps use it to keep the pre-harness
// contract in which a broken scenario panicked the caller.
func Map[T any](ctx context.Context, cfg Config, n int, fn func(pt Point) T) []T {
	rs := Run(ctx, cfg, n, func(_ context.Context, pt Point) (T, error) {
		return fn(pt), nil
	})
	vs, err := Values(rs)
	if err != nil {
		panic(err)
	}
	return vs
}
