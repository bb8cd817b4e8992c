package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mltcp/internal/sim"
)

// The core contract: the same grid run serially and with many workers
// yields identical result slices, including per-point seeded randomness.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	run := func(workers int) []float64 {
		return Map(context.Background(), Config{Workers: workers, BaseSeed: 42}, 64,
			func(pt Point) float64 {
				rng := pt.RNG()
				sum := 0.0
				for k := 0; k < 100; k++ {
					sum += rng.Float64()
				}
				return sum + float64(pt.Index)
			})
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8, 16} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d differs from workers=1", w)
		}
	}
}

func TestResultsOrderedByIndex(t *testing.T) {
	t.Parallel()
	// Reverse-skewed sleep: later points finish first under parallelism.
	rs := Run(context.Background(), Config{Workers: 8}, 16,
		func(_ context.Context, pt Point) (int, error) {
			time.Sleep(time.Duration(16-pt.Index) * time.Millisecond)
			return pt.Index * 10, nil
		})
	for i, r := range rs {
		if r.Index != i || r.Value != i*10 {
			t.Fatalf("slot %d holds index %d value %d", i, r.Index, r.Value)
		}
		if r.Elapsed <= 0 {
			t.Errorf("point %d: no elapsed time recorded", i)
		}
	}
}

func TestPanicCapturedAsPointFailure(t *testing.T) {
	t.Parallel()
	rs := Run(context.Background(), Config{Workers: 4}, 8,
		func(_ context.Context, pt Point) (string, error) {
			if pt.Index == 3 {
				panic("scenario exploded")
			}
			return "ok", nil
		})
	for i, r := range rs {
		if i == 3 {
			if !r.Panicked || r.Err == nil {
				t.Fatalf("point 3: Panicked=%v Err=%v", r.Panicked, r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != "ok" {
			t.Errorf("point %d failed: %v", i, r.Err)
		}
	}
	if _, err := Values(rs); err == nil {
		t.Error("Values did not surface the panic error")
	}
}

func TestMapPanicsOnFailure(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("Map did not re-panic on point failure")
		}
	}()
	Map(context.Background(), Config{Workers: 2}, 4, func(pt Point) int {
		if pt.Index == 1 {
			panic("boom")
		}
		return 0
	})
}

func TestCancellationStopsDispatch(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	rs := Run(ctx, Config{Workers: 2}, 100,
		func(ctx context.Context, pt Point) (int, error) {
			if started.Add(1) == 2 {
				cancel()
			}
			<-ctx.Done() // cooperative: unwind on cancellation
			return 0, ctx.Err()
		})
	if len(rs) != 100 {
		t.Fatalf("got %d results", len(rs))
	}
	cancelled := 0
	for _, r := range rs {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != 100 {
		t.Errorf("%d/100 points report cancellation", cancelled)
	}
	if n := started.Load(); n >= 100 {
		t.Errorf("all %d points started despite cancellation", n)
	}
}

func TestPointTimeout(t *testing.T) {
	t.Parallel()
	rs := Run(context.Background(), Config{Workers: 4, PointTimeout: 20 * time.Millisecond}, 6,
		func(ctx context.Context, pt Point) (int, error) {
			if pt.Index == 2 {
				<-ctx.Done() // hang until the deadline fires
				return 0, ctx.Err()
			}
			return pt.Index, nil
		})
	for i, r := range rs {
		if i == 2 {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("point 2: err %v, want deadline exceeded", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("point %d: value %d err %v", i, r.Value, r.Err)
		}
	}
}

func TestScenarioErrorsPropagate(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("bad point")
	rs := Run(context.Background(), Config{}, 3,
		func(_ context.Context, pt Point) (int, error) {
			if pt.Index == 1 {
				return 0, sentinel
			}
			return pt.Index, nil
		})
	if !errors.Is(rs[1].Err, sentinel) {
		t.Errorf("point 1 err = %v", rs[1].Err)
	}
	if _, err := Values(rs); !errors.Is(err, sentinel) {
		t.Errorf("Values err = %v", err)
	}
}

func TestSeedDerivationMatchesSim(t *testing.T) {
	t.Parallel()
	rs := Run(context.Background(), Config{Workers: 3, BaseSeed: 7}, 5,
		func(_ context.Context, pt Point) (uint64, error) {
			return pt.Seed, nil
		})
	for i, r := range rs {
		if want := sim.DeriveSeed(7, uint64(i)); r.Value != want {
			t.Errorf("point %d seed %#x, want %#x", i, r.Value, want)
		}
	}
	// Distinct base seeds and distinct indices give distinct streams.
	seen := map[uint64]string{}
	for base := uint64(0); base < 8; base++ {
		for i := uint64(0); i < 8; i++ {
			s := sim.DeriveSeed(base, i)
			key := fmt.Sprintf("base=%d i=%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %#x", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestZeroPoints(t *testing.T) {
	t.Parallel()
	rs := Run(context.Background(), Config{Workers: 4}, 0,
		func(_ context.Context, pt Point) (int, error) { return 0, nil })
	if len(rs) != 0 {
		t.Fatalf("got %d results for empty grid", len(rs))
	}
}

func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	t.Parallel()
	if w := (Config{}).workers(); w < 1 {
		t.Fatalf("default workers %d", w)
	}
	if w := (Config{Workers: -3}).workers(); w < 1 {
		t.Fatalf("negative workers resolved to %d", w)
	}
}

// TestRunWithoutCollectorStillTimes checks that Result.Elapsed is filled
// on a plain context.
func TestRunWithoutCollectorStillTimes(t *testing.T) {
	results := Run(context.Background(), Config{Workers: 1}, 1,
		func(ctx context.Context, pt Point) (int, error) {
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if results[0].Elapsed <= 0 {
		t.Fatalf("Elapsed = %v without a collector", results[0].Elapsed)
	}
}
