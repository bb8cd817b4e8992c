package obs

import "runtime"

// MemSnapshot is a point-in-time view of the process allocator. Two
// snapshots bracket a measured region; their difference is the region's
// allocation cost.
type MemSnapshot struct {
	// TotalAllocBytes is the cumulative bytes allocated on the heap.
	TotalAllocBytes uint64
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64
}

// ReadMem takes an exact memory snapshot with runtime.ReadMemStats. It
// stops the world briefly, which flushes every P's allocation cache —
// that is what makes the counters exact, and also what makes it too
// expensive to call inside a timed region: bracket the region with it,
// outside the stopwatch window.
func ReadMem() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
	}
}
