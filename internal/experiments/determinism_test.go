package experiments

import (
	"reflect"
	"testing"

	"mltcp/internal/sim"
)

// These tests are the harness's trust contract: every sweep ported onto
// internal/harness must produce byte-identical result slices whether it
// runs serially (workers=1) or fanned out (workers=8) from the same base
// seed. Any divergence means a scenario leaked scheduling-order-dependent
// state into its results and the parallel sweep cannot be trusted.

func TestSlopeInterceptSweepDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	serial := SlopeInterceptSweep(10*sim.Millisecond, 1)
	parallel := SlopeInterceptSweep(10*sim.Millisecond, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 diverge:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
}

func TestScalabilityDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	// OptimizerWall is a real wall-clock measurement and legitimately
	// varies run to run; zero it so DeepEqual covers only the simulated
	// (deterministic) fields.
	normalize := func(pts []ScalabilityPoint) []ScalabilityPoint {
		for i := range pts {
			pts[i].OptimizerWall = 0
		}
		return pts
	}
	serial := normalize(Scalability([]int{2, 4, 6}, 1))
	parallel := normalize(Scalability([]int{2, 4, 6}, 8))
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 diverge:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
}

func TestFCTGridDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	schemes := []string{FCTReno, FCTDCTCP, FCTPFabric}
	loads := []float64{0.4, 0.6}
	serial := FCTGrid(schemes, loads, 5*sim.Second, 42, 1)
	parallel := FCTGrid(schemes, loads, 5*sim.Second, 42, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 diverge:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
	if len(serial) != len(schemes)*len(loads) {
		t.Fatalf("grid has %d cells, want %d", len(serial), len(schemes)*len(loads))
	}
	// Distinct cells really got distinct seed streams: identical scheme
	// at different loads must not produce identical flow counts by seed
	// reuse (loads differ, so equality here would be suspicious anyway).
	if serial[0].Completed == 0 {
		t.Fatal("grid cell completed no flows; degenerate run")
	}
}

func TestNoiseRobustnessDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	sigmas := []sim.Time{0, 20 * sim.Millisecond}
	serial := NoiseRobustness(sigmas, 120*sim.Second, 1)
	parallel := NoiseRobustness(sigmas, 120*sim.Second, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers=1 and workers=8 diverge:\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
}

// Repeating a parallel sweep with the same base seed reproduces it exactly
// (run-to-run, not just serial-vs-parallel).
func TestParallelSweepRepeatable(t *testing.T) {
	t.Parallel()
	a := FCTGrid([]string{FCTReno}, []float64{0.5}, 5*sim.Second, 7, 8)
	b := FCTGrid([]string{FCTReno}, []float64{0.5}, 5*sim.Second, 7, 8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same base seed, two runs diverge:\n a: %+v\n b: %+v", a, b)
	}
	// And a different base seed yields a different grid.
	c := FCTGrid([]string{FCTReno}, []float64{0.5}, 5*sim.Second, 8, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("different base seeds produced identical grids")
	}
}
