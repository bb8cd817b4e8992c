// Package fluid is a flow-level (fluid) simulator of periodic DNN jobs
// sharing one bottleneck link. Instead of individual packets, each
// communicating job receives an instantaneous rate from a pluggable sharing
// policy; phases advance by integrating those rates over small intervals.
//
// The weighted-share policy abstracts AIMD congestion control: with
// synchronized loss and equal RTTs, a flow whose additive increase is
// scaled by F obtains a steady-state bandwidth share proportional to F, so
// MLTCP's window scaling appears here as a per-job weight F(bytes_ratio).
// This is exactly the abstraction §4 of the paper uses to derive the Shift
// function, and it lets convergence experiments spanning hundreds of
// iterations run in milliseconds. The packet-level simulator
// (internal/netsim + internal/tcp + internal/core) validates the
// abstraction at small scale.
package fluid

import (
	"fmt"

	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

type phase int

const (
	phaseIdle phase = iota // before StartOffset
	phaseComm
	phaseCompute
	phaseDone // stopped by job-iteration limit
)

// Job is one periodic DNN job inside a fluid simulation.
type Job struct {
	// Spec is the job's workload description.
	Spec workload.Spec
	// Agg is the job's aggressiveness function; nil models a plain
	// fair-share flow (TCP Reno) with constant weight 1.
	Agg *core.AggFunc
	// MaxIterations stops the job after this many completed
	// communication phases (0 = unlimited).
	MaxIterations int
	// Path lists the directed link indices the job's flow crosses, in
	// order, when the simulation runs over a Config.Network fabric.
	// Ignored (and normally nil) in single-bottleneck simulations.
	Path []int

	phase         phase
	totalBytes    float64 // per-iteration volume, Spec.Profile.CommBytes, set by New
	commRemaining float64 // bytes left in the current comm phase
	attained      float64 // bytes delivered in the current iteration
	wakeAt        sim.Time
	rng           *sim.RNG
	flow          int // telemetry flow ID (1-based position)

	// CommStarts and CommEnds record each communication phase's
	// boundaries; IterDurations[i] = CommStarts[i+1] - CommStarts[i].
	CommStarts    []sim.Time
	CommEnds      []sim.Time
	IterDurations []sim.Time
}

// BytesRatio returns the fraction of the current iteration's bytes already
// delivered, clamped to [0, 1] — the fluid analogue of Algorithm 1's
// bytes_ratio.
func (j *Job) BytesRatio() float64 {
	// Branchy min instead of math.Min: same result for every input this
	// ratio can take (non-negative, NaN passes through either way), and
	// it keeps the per-step weight evaluation call-free.
	r := j.attained / j.totalBytes
	if r > 1 {
		return 1
	}
	return r
}

// Weight returns the job's current bandwidth weight: F(bytes_ratio) for
// MLTCP jobs, 1 for plain fair-share jobs.
func (j *Job) Weight() float64 {
	if j.Agg == nil {
		return 1
	}
	return j.Agg.Eval(j.BytesRatio())
}

// Remaining returns the bytes left in the current communication phase
// (pFabric/SRPT's remaining flow size). Zero outside a comm phase.
func (j *Job) Remaining() float64 {
	if j.phase != phaseComm {
		return 0
	}
	return j.commRemaining
}

// Attained returns the bytes delivered in the current iteration (the LAS /
// PIAS demotion counter, which resets each iteration because each comm
// phase is a fresh flowlet).
func (j *Job) Attained() float64 { return j.attained }

// currentCommStart returns when the job's current communication phase
// began (sim.MaxTime if it never communicated).
func (j *Job) currentCommStart() sim.Time {
	if len(j.CommStarts) == 0 {
		return sim.MaxTime
	}
	return j.CommStarts[len(j.CommStarts)-1]
}

// Communicating reports whether the job is in a communication phase.
func (j *Job) Communicating() bool { return j.phase == phaseComm }

// Iterations returns the number of completed communication phases.
func (j *Job) Iterations() int { return len(j.CommEnds) }

// AvgIterTime averages the iteration durations after skipping the first
// `skip` (to exclude the convergence transient when measuring steady
// state). It returns 0 if no iterations qualify.
func (j *Job) AvgIterTime(skip int) sim.Time {
	if skip >= len(j.IterDurations) {
		return 0
	}
	var sum sim.Time
	n := 0
	for _, d := range j.IterDurations[skip:] {
		sum += d
		n++
	}
	return sum / sim.Time(n)
}

// Config configures a fluid simulation.
type Config struct {
	// Capacity is the bottleneck link rate. Ignored when Network is set
	// (each link then carries its own capacity).
	Capacity units.Rate
	// Policy allocates the bottleneck among communicating jobs. When
	// Network is set it must be WeightedShare, the single-link case of
	// the network's weighted max-min.
	Policy Policy
	// Network, when non-nil, replaces the single bottleneck with a
	// multi-link fabric: every job must carry a non-empty Path of link
	// indices into Network.Capacities, and allocation is weighted max-min
	// over its links (AllocateNetwork).
	Network *Network
	// Step bounds how long allocated rates are held constant before the
	// policy re-evaluates (default 1ms). Phase boundaries are handled
	// exactly regardless of Step.
	Step sim.Time
	// TraceBucket, when positive, records per-job bandwidth into
	// buckets of this width for plotting.
	TraceBucket sim.Time
	// Telemetry receives iteration boundaries and MLTCP weight
	// evaluations, under the same event schema the packet stack emits.
	// Jobs are identified by flow ID = 1-based position. Nil disables.
	Telemetry *telemetry.Recorder
}

// Sim runs a set of jobs over one bottleneck (or, with Config.Network, a
// multi-link fabric).
//
// The integration state is structured for the hot loop: the set of
// communicating jobs is maintained incrementally (in job-index order)
// across steps instead of being rebuilt by scanning every job, the next
// wake-up among sleeping jobs is cached, and the per-step rate vector and
// allocator scratch are reused — a steady-state step allocates nothing.
type Sim struct {
	cfg   Config
	ws    bool // single link under WeightedShare: call it directly
	jobs  []*Job
	now   sim.Time
	steps uint64

	active  []*Job       // communicating jobs, ascending flow id
	rates   []units.Rate // reused per-step allocation vector
	scratch AllocScratch // reused allocator working set
	minWake sim.Time     // earliest wakeAt among idle/compute jobs (MaxTime if none)

	trace [][]float64 // bytes per bucket, indexed by flow-1
}

// New creates a simulation. Every job gets a private noise stream derived
// from its Spec.Seed.
func New(cfg Config, jobs []*Job) *Sim {
	if cfg.Network == nil && cfg.Capacity <= 0 {
		panic("fluid: capacity must be positive")
	}
	if cfg.Policy == nil {
		panic("fluid: nil policy")
	}
	if cfg.Step == 0 {
		cfg.Step = sim.Millisecond
	}
	if cfg.Step < 0 {
		panic("fluid: negative step")
	}
	if len(jobs) == 0 {
		panic("fluid: no jobs")
	}
	s := &Sim{cfg: cfg, jobs: jobs, minWake: sim.MaxTime}
	// Devirtualize the dominant single-link case: WeightedShare is
	// stateless, so allocate can call it directly instead of through the
	// interface. A network allocates by weighted max-min, whose
	// single-link case WeightedShare is, and by nothing else.
	_, ws := cfg.Policy.(WeightedShare)
	if cfg.Network != nil && !ws {
		panic(fmt.Sprintf("fluid: policy %T cannot allocate a multi-link network", cfg.Policy))
	}
	s.ws = ws && cfg.Network == nil
	hops := 0
	for i, j := range jobs {
		if j.Spec.Profile.CommBytes <= 0 || j.Spec.Profile.ComputeTime < 0 {
			panic(fmt.Sprintf("fluid: job %s has invalid profile %v", j.Spec.Label(), j.Spec.Profile))
		}
		if cfg.Network != nil {
			hops += len(j.Path)
			if len(j.Path) == 0 {
				panic(fmt.Sprintf("fluid: job %s has no network path", j.Spec.Label()))
			}
			for _, l := range j.Path {
				if l < 0 || l >= len(cfg.Network.Capacities) {
					panic(fmt.Sprintf("fluid: job %s path references link %d of %d",
						j.Spec.Label(), l, len(cfg.Network.Capacities)))
				}
			}
		}
		j.phase = phaseIdle
		j.totalBytes = float64(j.Spec.Profile.CommBytes)
		j.wakeAt = j.Spec.StartOffset
		j.rng = sim.NewRNG(j.Spec.Seed ^ 0x9e3779b97f4a7c15)
		j.flow = i + 1
		if j.wakeAt < s.minWake {
			s.minWake = j.wakeAt
		}
	}
	if cfg.Network != nil {
		s.scratch.reserve(cfg.Network.Capacities, len(jobs), hops)
	}
	s.active = make([]*Job, 0, len(jobs))
	s.rates = make([]units.Rate, len(jobs))
	s.trace = make([][]float64, len(jobs))
	return s
}

// Jobs returns the simulated jobs.
func (s *Sim) Jobs() []*Job { return s.jobs }

// Now returns the current simulation time.
func (s *Sim) Now() sim.Time { return s.now }

// Steps returns the number of integration intervals processed so far —
// the fluid analogue of a discrete engine's fired-event count, used by
// the self-metrics layer to express solver throughput.
func (s *Sim) Steps() uint64 { return s.steps }

// Run advances the simulation to the given absolute time.
//
// hot
func (s *Sim) Run(until sim.Time) {
	// Loop-invariant hoists: whether telemetry records and the trace
	// bucket width cannot change mid-run.
	telemetryOn := s.cfg.Telemetry.Enabled()
	traceBucket := s.cfg.TraceBucket
	for s.now < until {
		s.steps++
		s.wakeDueJobs()

		active := s.active
		dt := s.nextBoundary(until, active)
		if len(active) == 0 {
			s.now += dt
			continue
		}

		rates := s.allocate(active)
		if telemetryOn {
			for _, j := range active {
				if j.Agg != nil {
					s.cfg.Telemetry.AggEval(s.now, j.flow, j.BytesRatio(), j.Agg.Eval)
				}
			}
		}
		// Constrain dt so no job overshoots its completion. The common
		// case — the job's finish time is far beyond dt — is screened
		// without the divide or the math.Round: with c9 ≈ remaining ticks
		// × rate (c·8 is exact, so c9 carries one rounding), the screen
		// c9 >= (fdt+4)·rate guarantees the true finish f >= fdt+3.9 even
		// after every intermediate rounding (relative error ~2e-16, and
		// fdt < 2^40 keeps the absolute slop far under the +4 margin), so
		// Round(f) >= f-0.5 > dt and the constraint cannot bind. The
		// c9 <= 8e24 && rate >= 1e6 guards bound f <= ~8e18 < MaxInt64,
		// keeping any value that could overflow the int64 conversion on
		// the exact path, which is the original sim.FromSeconds call.
		// NaN or negative inputs fail the screen and take the exact
		// path too.
		fdt, fastOK := float64(dt), dt < 1<<40 //lint:allow simunits screen compares in exact tick space
		for i, j := range active {
			if rates[i] <= 0 {
				continue
			}
			r := float64(rates[i])
			c9 := j.commRemaining * 8e9
			if fastOK && c9 >= (fdt+4)*r && c9 <= 8e24 && r >= 1e6 {
				continue
			}
			finish := sim.FromSeconds(j.commRemaining * 8 / r)
			if finish < 1 {
				finish = 1 // guard against zero-length loops
			}
			if finish < dt {
				dt = finish
				fdt, fastOK = float64(dt), dt < 1<<40 //lint:allow simunits screen compares in exact tick space
			}
		}

		// One step shares dt across jobs, so the interval length and the
		// trace bucket are evaluated once, not per job. Both hoists are
		// bit-identical to the per-job expressions they replace.
		dtSec := dt.Seconds()
		traceIdx := -1
		if traceBucket > 0 {
			traceIdx = int((s.now + dt/2) / traceBucket)
		}
		finished := false
		for i, j := range active {
			if rates[i] <= 0 {
				continue
			}
			// ×0.125 is exactly ÷8 for every float64 (the exact quotient
			// and product coincide, so they round identically) — the same
			// value as the original rate/8 expression without the divide.
			bytes := float64(rates[i]) * 0.125 * dtSec
			if bytes >= j.commRemaining-1e-6 {
				bytes = j.commRemaining
			}
			j.commRemaining -= bytes
			j.attained += bytes
			if traceIdx >= 0 {
				s.addTrace(j, traceIdx, bytes)
			}
			if j.commRemaining <= 1e-6 {
				s.finishComm(j, s.now+dt)
				finished = true
			}
		}
		if finished {
			s.compactActive()
		}
		s.now += dt
	}
	s.now = until
}

// allocate fills the per-step rate vector in place: the weighted share
// on one link and max-min on a network by direct calls, every other
// policy through the Policy interface.
//
// hot
func (s *Sim) allocate(active []*Job) []units.Rate {
	if cap(s.rates) < len(active) {
		s.rates = make([]units.Rate, len(active))
	}
	rates := s.rates[:len(active)]
	switch {
	case s.ws:
		WeightedShare{}.Allocate(s.cfg.Capacity, active, rates, &s.scratch)
	case s.cfg.Network != nil:
		AllocateNetwork(s.cfg.Network, active, rates, &s.scratch)
	default:
		s.cfg.Policy.Allocate(s.cfg.Capacity, active, rates, &s.scratch)
	}
	return rates
}

// wakeDueJobs moves jobs whose wake time has arrived into the active set.
// The cached minWake makes the common case (no wake due) one comparison;
// a due wake rescans all jobs, which preserves the original index-ordered
// wake (and telemetry) sequence exactly.
//
// hot
func (s *Sim) wakeDueJobs() {
	if s.minWake > s.now {
		return
	}
	min := sim.MaxTime
	for _, j := range s.jobs {
		if j.phase == phaseIdle || j.phase == phaseCompute {
			if j.wakeAt > s.now {
				if j.wakeAt < min {
					min = j.wakeAt
				}
				continue
			}
			j.phase = phaseComm
			j.commRemaining = j.totalBytes
			j.attained = 0
			j.CommStarts = append(j.CommStarts, s.now)
			s.insertActive(j)
			s.cfg.Telemetry.IterStart(s.now, j.flow, len(j.CommStarts)-1)
			if n := len(j.CommStarts); n >= 2 {
				j.IterDurations = append(j.IterDurations, j.CommStarts[n-1]-j.CommStarts[n-2])
			}
		}
	}
	s.minWake = min
}

// insertActive places j into the active list keeping ascending flow-id
// order — the same order the old per-step scan over s.jobs produced —
// and, on a network, joins it to the allocator's incidence index.
func (s *Sim) insertActive(j *Job) {
	s.active = append(s.active, nil)
	i := len(s.active) - 1
	for i > 0 && s.active[i-1].flow > j.flow {
		s.active[i] = s.active[i-1]
		i--
	}
	s.active[i] = j
	if s.cfg.Network != nil {
		s.scratch.inc.join(i, j.Path)
	}
}

// compactActive drops jobs that left the communicating phase during the
// integration loop, preserving order, and, on a network, has each leave
// the allocator's incidence index. A dropped job's index position is k,
// the count of jobs kept before it: the dropped ones before it have
// already left.
//
// hot
func (s *Sim) compactActive() {
	k := 0
	for _, j := range s.active {
		if j.phase == phaseComm {
			s.active[k] = j
			k++
		} else if s.cfg.Network != nil {
			s.scratch.inc.leave(k)
		}
	}
	for i := k; i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = s.active[:k]
}

// nextBoundary returns the interval to the next wake-up or the step limit.
//
// hot
func (s *Sim) nextBoundary(until sim.Time, active []*Job) sim.Time {
	dt := until - s.now
	if len(active) > 0 && s.cfg.Step < dt {
		dt = s.cfg.Step
	}
	if s.minWake != sim.MaxTime {
		if w := s.minWake - s.now; w < dt {
			dt = w
		}
	}
	if dt < 1 {
		dt = 1
	}
	return dt
}

func (s *Sim) finishComm(j *Job, at sim.Time) {
	j.CommEnds = append(j.CommEnds, at)
	s.cfg.Telemetry.IterEnd(at, j.flow, len(j.CommEnds)-1, at-j.currentCommStart())
	if j.MaxIterations > 0 && len(j.CommEnds) >= j.MaxIterations {
		j.phase = phaseDone
		return
	}
	compute := j.Spec.Profile.ComputeTime
	if j.Spec.NoiseStd > 0 {
		compute = j.rng.NormDuration(compute, j.Spec.NoiseStd, 0)
	}
	j.phase = phaseCompute
	j.wakeAt = at + compute
	if j.wakeAt < s.minWake {
		s.minWake = j.wakeAt
	}
}

func (s *Sim) addTrace(j *Job, idx int, bytes float64) {
	tr := s.trace[j.flow-1]
	if len(tr) <= idx {
		for len(tr) <= idx {
			tr = append(tr, 0)
		}
		s.trace[j.flow-1] = tr // write the header (and its barrier) only on growth
	}
	tr[idx] += bytes
}

// traceOf returns the recorded bucket series for j, or nil for a job the
// simulation does not own.
func (s *Sim) traceOf(j *Job) []float64 {
	if j.flow < 1 || j.flow > len(s.trace) {
		return nil
	}
	return s.trace[j.flow-1]
}

// EmitTrace replays every job's bandwidth buckets as KindBandwidth events
// (one per non-empty bucket, timestamped at the bucket's end). Call after
// Run; telemetry.Write's merge by time interleaves them deterministically.
func (s *Sim) EmitTrace(rec *telemetry.Recorder) {
	if !rec.Enabled() || s.cfg.TraceBucket <= 0 {
		return
	}
	for _, j := range s.jobs {
		for i, b := range s.traceOf(j) {
			if b == 0 {
				continue
			}
			rec.Bandwidth(sim.Time(i+1)*s.cfg.TraceBucket, j.flow, s.cfg.TraceBucket, b)
		}
	}
}

// Trace returns the job's recorded bandwidth series in bits per second per
// bucket (empty without TraceBucket).
func (s *Sim) Trace(j *Job) []units.Rate {
	bytes := s.traceOf(j)
	out := make([]units.Rate, len(bytes))
	for i, b := range bytes {
		out[i] = units.Rate(b * 8 / s.cfg.TraceBucket.Seconds())
	}
	return out
}
