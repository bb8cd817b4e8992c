package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"mltcp/internal/obs"
)

// The reference kernel is fixed work the timed loop runs after every op.
// End-to-end timings are reported in units of its run time ("ref"): on a
// shared machine the same op's host time drifts by 20-35% within a
// minute, and the kernel, run next to the op, drifts with it. The kernel
// uses only the standard library and this file, so no change to the
// simulator can move it. Its mix follows the simulator's own: an event
// heap of small allocated records keyed by float times, a string-keyed
// map, number formatting, a JSON round trip and a sort.

const (
	refEvents  = 20000 // events pushed through the heap
	refPending = 2000  // events the heap holds before it starts popping
	refKeys    = 8000  // map entries
	refRecords = 1000  // records in the JSON round trip
	refSorted  = 16000 // values sorted
)

type refEvent struct {
	at  float64
	seq int
}

type refRecord struct {
	Name string  `json:"name"`
	At   float64 `json:"at"`
	Seq  int     `json:"seq"`
}

// refKernel does the reference work and returns a checksum of it, the
// same on every call.
func refKernel() (float64, error) {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	var sum float64

	heap := make([]*refEvent, 0, refPending+1)
	for i := 0; i < refEvents; i++ {
		heap = append(heap, &refEvent{at: next(), seq: i})
		for k := len(heap) - 1; k > 0; {
			up := (k - 1) / 2
			if heap[up].at <= heap[k].at {
				break
			}
			heap[up], heap[k] = heap[k], heap[up]
			k = up
		}
		if len(heap) <= refPending {
			continue
		}
		sum += heap[0].at
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		for k := 0; ; {
			c := 2*k + 1
			if c >= len(heap) {
				break
			}
			if r := c + 1; r < len(heap) && heap[r].at < heap[c].at {
				c = r
			}
			if heap[k].at <= heap[c].at {
				break
			}
			heap[k], heap[c] = heap[c], heap[k]
			k = c
		}
	}

	m := make(map[string]int)
	for i := 0; i < refKeys; i++ {
		m["flow-"+strconv.Itoa(3*i)] = i
	}
	for i := 0; i < 2*refKeys; i++ {
		sum += float64(m["flow-"+strconv.Itoa(i)])
	}

	recs := make([]refRecord, refRecords)
	for i := range recs {
		recs[i] = refRecord{Name: "job-" + strconv.Itoa(i), At: next(), Seq: i}
	}
	enc, err := json.Marshal(recs)
	if err != nil {
		return 0, err
	}
	var dec []refRecord
	if err := json.Unmarshal(enc, &dec); err != nil {
		return 0, err
	}
	for _, r := range dec {
		sum += r.At
	}

	vals := make([]float64, refSorted)
	for i := range vals {
		vals[i] = next()
	}
	sort.Float64s(vals)
	for i := 0; i < len(vals); i += 100 {
		sum += vals[i]
	}
	return sum, nil
}

// refRunner times reference runs and checks that each returns the
// checksum of the first.
type refRunner struct {
	want    float64
	samples []time.Duration
}

func (r *refRunner) run() (time.Duration, error) {
	var sum float64
	var d time.Duration
	var err error
	withoutGC(func() {
		sw := obs.StartTimer()
		sum, err = refKernel()
		d = sw.Elapsed()
	})
	if err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	if len(r.samples) == 0 {
		r.want = sum
	} else if sum != r.want {
		return 0, fmt.Errorf("reference kernel checksum %v, first run gave %v", sum, r.want)
	}
	r.samples = append(r.samples, d)
	return d, nil
}

// withoutGC collects garbage, then runs f with the collector off: what f
// times pays for none of the garbage made before it, and collection runs
// between timed sections, never inside one.
func withoutGC(f func()) {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	f()
	debug.SetGCPercent(gcPercent)
}
