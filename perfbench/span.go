package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mltcp/internal/obs"
)

// span is one timed call from the benchmark into a layer's public
// function. Start and End are offsets from the tracer's epoch; Parent
// indexes the enclosing span (-1 for a root). Allocs and AllocBytes are
// the exact heap-allocation deltas over the call, read with obs.ReadMem.
type span struct {
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer keeps the spans of one traced run in memory. A nil *tracer is
// the untraced state: begin and end are no-ops, so a workload's pipeline
// is written once and runs either way.
type tracer struct {
	epoch obs.Stopwatch
	spans []span
	open  int // innermost open span, -1 when none
	mem   []obs.MemSnapshot
}

func newTracer() *tracer { return &tracer{epoch: obs.StartTimer(), open: -1} }

// begin opens a span named name as a child of the innermost open span
// and returns its handle for end. The memory snapshot is taken before
// the start instant, so its stop-the-world pause lands in the parent's
// self time, not in the span's own.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	m := obs.ReadMem()
	t.spans = append(t.spans, span{Name: name, Parent: t.open, Start: int64(t.epoch.Elapsed())})
	t.mem = append(t.mem, m)
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(t.epoch.Elapsed())
	m := obs.ReadMem()
	s.Allocs = m.Mallocs - t.mem[id].Mallocs
	s.AllocBytes = m.TotalAllocBytes - t.mem[id].TotalAllocBytes
	t.open = s.Parent
}

// call runs f inside a span named name.
func (t *tracer) call(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// selfNS returns each span's self time: its duration minus the part of
// it covered by its direct children.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// root returns the index of span i's outermost ancestor.
func (t *tracer) root(i int) int {
	for t.spans[i].Parent >= 0 {
		i = t.spans[i].Parent
	}
	return i
}

// layerStats is one span name's aggregate over a traced run.
type layerStats struct {
	calls  int
	allocs uint64
	selfNS int64
	// perRootMS is the median, over the root spans (ops or setups) the
	// name occurs under, of its summed self time within one root.
	perRootMS float64
}

// summarize aggregates the spans by name.
func (t *tracer) summarize() map[string]*layerStats {
	self := t.selfNS()
	out := map[string]*layerStats{}
	perRoot := map[string]map[int]int64{}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
			perRoot[s.Name] = map[int]int64{}
		}
		ls.calls++
		ls.allocs += s.Allocs
		ls.selfNS += self[i]
		perRoot[s.Name][t.root(i)] += self[i]
	}
	for name, byRoot := range perRoot {
		ms := make([]float64, 0, len(byRoot))
		for _, ns := range byRoot {
			ms = append(ms, float64(ns)/float64(time.Millisecond))
		}
		out[name].perRootMS = median(ms)
	}
	return out
}

// writeJSONL writes every span, one JSON object a line, in start order.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.spans {
		line, err := json.Marshal(s)
		if err != nil {
			return fmt.Errorf("encode span %q: %w", s.Name, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
