package obs

import (
	"context"
	"testing"

	"mltcp/internal/sim"
)

func TestStopwatchMonotonic(t *testing.T) {
	sw := StartTimer()
	first := sw.Elapsed()
	if first < 0 {
		t.Fatalf("negative elapsed %v", first)
	}
	for i := 0; i < 100; i++ {
		next := sw.Elapsed()
		if next < first {
			t.Fatalf("elapsed went backwards: %v then %v", first, next)
		}
		first = next
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if got := c.Runs(); got != nil {
		t.Fatalf("nil collector Runs = %v", got)
	}
	// Every span method must be callable on the nil span a nil collector
	// hands out.
	span := c.StartRun("fluid")
	span.Heartbeat(10)
	span.Finish(100, sim.Second)
}

func TestRunSpanRecordsStats(t *testing.T) {
	c := NewCollector()
	span := c.StartRun("packet")
	span.Heartbeat(7)
	span.Heartbeat(3) // smaller sample must not lower the max
	span.Finish(12345, 20*sim.Second)

	runs := c.Runs()
	want := RunStats{Backend: "packet", SimDuration: 20 * sim.Second, Events: 12345, MaxHeapDepth: 7}
	if len(runs) != 1 || runs[0] != want {
		t.Fatalf("runs %+v, want [%+v]", runs, want)
	}
}

func TestContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carries a collector")
	}
	c := NewCollector()
	ctx := WithCollector(context.Background(), c)
	if FromContext(ctx) != c {
		t.Fatal("collector lost in the context")
	}
}

func TestReadMem(t *testing.T) {
	before := ReadMem()
	sink := make([][]byte, 256)
	for i := range sink {
		sink[i] = make([]byte, 1024)
	}
	after := ReadMem()
	_ = sink
	if after.TotalAllocBytes <= before.TotalAllocBytes {
		t.Fatal("TotalAllocBytes did not grow across allocations")
	}
	if after.Mallocs <= before.Mallocs {
		t.Fatal("Mallocs did not grow across allocations")
	}
}
