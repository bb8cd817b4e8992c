package backend

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mltcp/internal/obs"
	"mltcp/internal/telemetry"
)

// runObserved mirrors runTraced with an obs collector attached alongside
// the recorder.
func runObserved(t testing.TB, b Backend, seed uint64, col *obs.Collector) (*Result, []byte) {
	t.Helper()
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	ctx = obs.WithCollector(ctx, col)
	res, err := b.Run(ctx, traceScenario(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	return res, out.Bytes()
}

// TestObsIsOutOfBand is the layer's acceptance property: a run with
// self-metrics collection enabled must produce a byte-identical golden
// trace and a DeepEqual Result to the same-seed run with observation
// off. Self-metrics observe the simulator; they must never steer it.
func TestObsIsOutOfBand(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			plainRes, plainTrace := runTraced(t, b, 1)
			col := obs.NewCollector()
			obsRes, obsTrace := runObserved(t, b, 1, col)
			if !bytes.Equal(plainTrace, obsTrace) {
				t.Fatal("enabling obs changed the serialized trace")
			}
			if !reflect.DeepEqual(plainRes, obsRes) {
				t.Fatalf("enabling obs changed the result:\nplain %+v\nobs   %+v", plainRes, obsRes)
			}
			if len(col.Runs()) != 1 {
				t.Fatalf("collector recorded %d runs, want 1", len(col.Runs()))
			}
		})
	}
}

// TestObsRunStatsPopulated checks each backend fills the self-metrics it
// is responsible for: work counts and the simulated horizon everywhere,
// event-heap depth on the packet engine only.
func TestObsRunStatsPopulated(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			col := obs.NewCollector()
			ctx := obs.WithCollector(context.Background(), col)
			res, err := b.Run(ctx, traceScenario(), 1)
			if err != nil {
				t.Fatal(err)
			}
			runs := col.Runs()
			if len(runs) != 1 {
				t.Fatalf("collector recorded %d runs, want 1", len(runs))
			}
			rs := runs[0]
			if rs.Backend != b.Name() {
				t.Fatalf("run attributed to %q", rs.Backend)
			}
			if rs.Events == 0 {
				t.Error("zero events")
			}
			if rs.SimDuration != res.Duration {
				t.Errorf("sim duration %v, run covered %v", rs.SimDuration, res.Duration)
			}
			if b.Name() == NamePacket {
				if rs.MaxHeapDepth <= 0 {
					t.Error("packet run with empty event heap")
				}
			} else if rs.MaxHeapDepth != 0 {
				t.Errorf("fluid run reports heap depth %d", rs.MaxHeapDepth)
			}
		})
	}
}

// TestObsEventsDeterministic pins that the work counters feeding
// testdata/exact_figures.json and perfbench are functions of
// (scenario, seed), not of scheduling.
func TestObsEventsDeterministic(t *testing.T) {
	for _, b := range backendsUnderTest() {
		t.Run(b.Name(), func(t *testing.T) {
			count := func() (uint64, int) {
				col := obs.NewCollector()
				ctx := obs.WithCollector(context.Background(), col)
				if _, err := b.Run(ctx, traceScenario(), 1); err != nil {
					t.Fatal(err)
				}
				rs := col.Runs()[0]
				return rs.Events, rs.MaxHeapDepth
			}
			e1, d1 := count()
			e2, d2 := count()
			if e1 != e2 || d1 != d2 {
				t.Fatalf("self-metrics varied across identical runs: events %d/%d depth %d/%d",
					e1, e2, d1, d2)
			}
		})
	}
}
