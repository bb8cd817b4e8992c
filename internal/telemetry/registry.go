package telemetry

import (
	"fmt"
	"sort"
)

// Registry is a create-on-demand metrics registry: counters, gauges, and
// fixed-bucket histograms keyed by name. Like the simulation engine, a
// Registry is owned by one run (one goroutine) and needs no locking;
// exports are deterministic because names are emitted sorted.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	c, ok := g.counters[name]
	if !ok {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Registry) Gauge(name string) *Gauge {
	v, ok := g.gauges[name]
	if !ok {
		v = &Gauge{}
		g.gauges[name] = v
	}
	return v
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds must be strictly increasing;
// they are ignored on later calls for the same name).
// The bounds panic formats through an always-panicking helper so the
// steady-state lookup stays allocation-free: Histogram is reached from
// //hot fluid code via Recorder.IterEnd, and the fact layer exempts
// functions that panic on every path.
func (g *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, ok := g.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panicBadBounds(name)
			}
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		g.hists[name] = h
	}
	return h
}

func panicBadBounds(name string) {
	panic(fmt.Sprintf("telemetry: histogram %q bounds not increasing", name))
}

// Counter is a monotonically increasing int64.
type Counter struct{ v int64 }

// Add increases the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decrement")
	}
	c.v += n
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a last-value-wins float64.
type Gauge struct{ v float64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last set value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets: counts[i] holds
// observations <= bounds[i] (and above bounds[i-1]); the final count is
// the overflow bucket.
type Histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts returns the per-bucket counts (len(Bounds())+1 with the
// overflow bucket last).
func (h *Histogram) Counts() []int64 { return h.counts }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Default bucket bounds for the auto-registered histograms.
var (
	// DefaultQueueBuckets covers queue occupancies from one MTU to a
	// deep buffer, in bytes.
	DefaultQueueBuckets = []float64{0, 1500, 7500, 15000, 37500, 75000, 150000, 375000, 750000, 1.5e6}
	// DefaultDurationBuckets covers phase durations from sub-millisecond
	// to minutes, in seconds.
	DefaultDurationBuckets = []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
)

// HistSnapshot is a histogram's exported form.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a registry's exported form. encoding/json emits map keys
// sorted, so serializations are deterministic.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every metric's current value.
func (g *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if len(g.counters) > 0 {
		s.Counters = make(map[string]int64, len(g.counters))
		for n, c := range g.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(g.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(g.gauges))
		for n, v := range g.gauges {
			s.Gauges[n] = v.Value()
		}
	}
	if len(g.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(g.hists))
		for n, h := range g.hists {
			s.Histograms[n] = HistSnapshot{
				Bounds: h.bounds, Counts: h.counts, Count: h.count, Sum: h.sum,
			}
		}
	}
	return s
}
