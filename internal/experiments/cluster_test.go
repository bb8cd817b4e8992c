package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/harness"
	"mltcp/internal/telemetry"
)

// testClusterOpts is the scaled-down 100-job trace used by the
// determinism tests: everything arrives within ~12s and most jobs depart
// before the 20s horizon.
func testClusterOpts() ClusterOpts {
	return ClusterOpts{
		Jobs:              100,
		ArrivalRatePerSec: 8,
		MeanIters:         10,
		DurationSec:       20,
		Seed:              11,
	}
}

// TestClusterScenarioPure pins that the generator is a pure function of
// its options and produces a valid 100-job topology scenario.
func TestClusterScenarioPure(t *testing.T) {
	t.Parallel()
	a, b := ClusterScenario(testClusterOpts()), ClusterScenario(testClusterOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from the same opts differ")
	}
	if err := a.Normalize(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	if len(a.Jobs) != 100 {
		t.Fatalf("generated %d jobs, want 100", len(a.Jobs))
	}
	for i, j := range a.Jobs {
		if j.SrcRack == "" || j.DstRack == "" || j.Iters < 1 {
			t.Fatalf("job %d incomplete: %+v", i, j)
		}
	}
	// Arrivals are strictly increasing (Poisson gaps are positive).
	for i := 1; i < len(a.Jobs); i++ {
		if a.Jobs[i].OffsetMS <= a.Jobs[i-1].OffsetMS {
			t.Fatalf("job %d arrives at %vms, not after job %d at %vms",
				i, a.Jobs[i].OffsetMS, i-1, a.Jobs[i-1].OffsetMS)
		}
	}
	// A different trace seed reshapes the trace.
	o := testClusterOpts()
	o.Seed = 12
	if reflect.DeepEqual(a.Jobs, ClusterScenario(o).Jobs) {
		t.Fatal("different trace seeds produced identical job lists")
	}
}

// TestClusterRunReportsScores runs the 100-job trace once and checks the
// cluster-wide summary is populated and jobs actually arrive and depart.
func TestClusterRunReportsScores(t *testing.T) {
	t.Parallel()
	scn := ClusterScenario(testClusterOpts())
	res, err := (&backend.Fluid{}).Run(context.Background(), scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cluster
	if c == nil {
		t.Fatal("no cluster summary")
	}
	if c.Topology != "fattree-8" || c.Racks != 32 || c.Links != 768 {
		t.Errorf("cluster identity = %+v", c)
	}
	if c.SharingPairs == 0 || c.DisjointPairs == 0 {
		t.Errorf("degenerate pair classes: %+v", c)
	}
	// The generated jobs expand one-to-one, so result job i carries the
	// budget of scenario job i; departures are jobs that hit it.
	departed := 0
	for i, j := range res.Jobs {
		budget := scn.Jobs[i].Iters
		if j.Iterations() > budget {
			t.Errorf("job %s ran %d iterations past its budget %d", j.Name, j.Iterations(), budget)
		}
		if j.Iterations() == budget {
			departed++
		}
	}
	if departed < 30 {
		t.Errorf("only %d jobs departed; trace-driven departure not exercised", departed)
	}
}

// TestClusterTraceByteIdenticalAcrossWorkers is the tentpole determinism
// contract at cluster scale: the 100-job Poisson fat-tree scenario
// serializes to byte-identical JSONL traces per harness point whether the
// sweep runs serially or across 8 workers.
func TestClusterTraceByteIdenticalAcrossWorkers(t *testing.T) {
	t.Parallel()
	scn := ClusterScenario(testClusterOpts())
	const points = 2
	run := func(workers int) [][]byte {
		results := harness.Run(context.Background(),
			harness.Config{Workers: workers, BaseSeed: 7}, points,
			func(ctx context.Context, pt harness.Point) ([]byte, error) {
				rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
				ctx = telemetry.WithRecorder(ctx, rec)
				if _, err := (&backend.Fluid{}).Run(ctx, scn, pt.Seed); err != nil {
					return nil, err
				}
				var out bytes.Buffer
				if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
					return nil, err
				}
				return out.Bytes(), nil
			})
		traces, err := harness.Values(results)
		if err != nil {
			t.Fatal(err)
		}
		return traces
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("point %d: empty trace", i)
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Fatalf("point %d: trace differs between workers=1 and workers=8", i)
		}
	}
	// Distinct points (different run seeds) must differ: noise streams
	// perturb the timelines even though the trace shape is shared.
	if bytes.Equal(serial[0], serial[1]) {
		t.Fatal("distinct harness points produced identical traces")
	}
}

// TestClusterGridDeterministicAcrossWorkers covers the Result-level
// contract for the same sweep (the form the figures consume).
func TestClusterGridDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	o := testClusterOpts()
	o.Jobs = 40 // smaller: this sweep runs 2×3 full simulations
	serial, err := ScenarioGrid(context.Background(), &backend.Fluid{}, ClusterScenario(o), 3, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ScenarioGrid(context.Background(), &backend.Fluid{}, ClusterScenario(o), 3, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("workers=1 and workers=8 cluster grids diverge")
	}
}
