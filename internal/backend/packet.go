package backend

import (
	"context"
	"fmt"
	"strings"

	"mltcp/internal/config"
	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/obs"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/telemetry"
	"mltcp/internal/units"
)

// Packet runs scenarios on the packet-level stack: a dumbbell topology
// sized from the scenario, one TCP flow per job driven through the DNN
// write/compute loop, with real loss, RTO, ACK clocking and (for DCTCP /
// D2TCP) ECN marking. The scenario is rendered at its PacketScale — the
// bottleneck runs at Capacity×scale and byte volumes shrink likewise, so
// every iteration time matches the fluid rendering while packet counts
// stay tractable. The zero value is ready to use.
type Packet struct {
	// Scale overrides the scenario's packet_scale when positive.
	Scale float64
	// CwndInterval is the congestion-window sampling interval for
	// JobResult.CwndTrace (default 250ms; negative disables sampling).
	CwndInterval sim.Time
}

// Name implements Backend.
func (*Packet) Name() string { return NamePacket }

// Packet-level topology constants, matching the paper's 1/100-scale
// testbed rendering used throughout internal/experiments.
const (
	hostRateFactor  = 10 // edge links at 10× bottleneck: contention only at the bottleneck
	hostDelay       = 10 * sim.Microsecond
	bottleneckDelay = 30 * sim.Microsecond
	ecnThreshold    = 20 // marking threshold in MTU-sized packets
)

// minTrackerGap floors Algorithm 1's COMP_TIME ack-gap threshold so jobs
// with tiny compute phases still get a positive boundary detector.
const minTrackerGap = 50 * sim.Millisecond

// pktJob drives one sender through the compute/communicate loop and
// records phase boundaries.
type pktJob struct {
	sender   *tcp.Sender
	bytes    int64
	compute  sim.Time
	noise    sim.Time
	rng      *sim.RNG
	trace    *tcp.CwndTrace
	rec      *telemetry.Recorder
	flow     int
	maxIters int

	starts, ends []sim.Time
}

func (p *pktJob) start(eng *sim.Engine, offset sim.Time) {
	p.sender.Drained(func(now sim.Time) {
		p.ends = append(p.ends, now)
		p.rec.IterEnd(now, p.flow, len(p.ends)-1, now-p.starts[len(p.ends)-1])
		if p.maxIters > 0 && len(p.ends) >= p.maxIters {
			return // the job departs after its configured iteration budget
		}
		compute := p.compute
		if p.noise > 0 {
			compute = p.rng.NormDuration(compute, p.noise, 0)
		}
		eng.After(compute, func(e *sim.Engine) { p.begin(e) })
	})
	eng.At(offset, func(e *sim.Engine) { p.begin(e) })
}

func (p *pktJob) begin(eng *sim.Engine) {
	p.starts = append(p.starts, eng.Now())
	p.rec.IterStart(eng.Now(), p.flow, len(p.starts)-1)
	p.sender.Write(p.bytes)
}

// Run implements Backend.
func (b *Packet) Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error) {
	s := *scn
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	base, ml, ok := s.CC()
	if !ok && !s.Centralized() {
		return nil, fmt.Errorf("backend: packet level does not implement policy %q; supported: %s, and centralized (%s are fluid-only)",
			s.Policy, strings.Join(config.CCPolicyNames(), ", "),
			strings.Join(config.FluidOnlyPolicyNames(), ", "))
	}
	if s.Topology != nil {
		return nil, fmt.Errorf("backend: packet level renders only the dumbbell; run topology %q on the %s backend",
			s.Topology.Label(), NameFluid)
	}
	if s.Centralized() {
		base, ml = "reno", false // the optimizer schedules; transport is plain TCP
	}

	scale := s.Scale()
	if b.Scale > 0 {
		scale = b.Scale
	}
	specs := s.Specs()
	var offsets []sim.Time
	if s.Centralized() {
		offsets = centralOffsets(specs, s.Capacity(), seed)
	}

	bottleneck := units.Rate(float64(s.Capacity()) * scale)
	eng := sim.New()
	cfg := netsim.DumbbellConfig{
		HostPairs:       len(specs),
		HostRate:        bottleneck * hostRateFactor,
		BottleneckRate:  bottleneck,
		HostDelay:       hostDelay,
		BottleneckDelay: bottleneckDelay,
	}
	ecn := base == "dctcp" || base == "d2tcp"
	if ecn {
		cfg.BottleneckQueue = func() netsim.Queue {
			return netsim.NewECNQueue(
				netsim.NewDropTail(netsim.DefaultQueuePackets*netsim.DefaultMTU),
				ecnThreshold*netsim.DefaultMTU)
		}
	}
	net := netsim.NewDumbbell(eng, cfg)

	cwndEvery := b.CwndInterval
	if cwndEvery == 0 {
		cwndEvery = 250 * sim.Millisecond
	}

	horizon := s.Duration()
	rec := telemetry.FromContext(ctx)
	var bwMon *netsim.BandwidthMonitor
	if rec.Enabled() {
		net.Forward.SetTelemetry(rec)
		netsim.NewQueueSampler(eng, net.Forward, telemetry.DefaultSampleEvery, 0, horizon, rec)
		bwMon = netsim.NewBandwidthMonitor(net.Forward, telemetry.DefaultSampleEvery)
	}

	jobs := make([]*pktJob, len(specs))
	for i, spec := range specs {
		bytes := int64(float64(spec.Profile.CommBytes) * scale)
		if bytes < 1 {
			return nil, fmt.Errorf("backend: job %s: comm volume %v at packet scale %v rounds to zero bytes",
				spec.Label(), spec.Profile.CommBytes, scale)
		}
		cc, err := buildCC(base, ml, s.Agg(), bytes, spec.Profile.ComputeTime)
		if err != nil {
			return nil, err
		}
		if m, ok := cc.(*core.MLTCP); ok {
			m.Instrument(rec, i+1)
		}
		f := tcp.NewFlow(eng, netsim.FlowID(i+1), net.Left[i], net.Right[i],
			cc, tcp.Config{ECN: ecn, Trace: rec})
		jobs[i] = &pktJob{
			sender:   f.Sender,
			bytes:    bytes,
			compute:  spec.Profile.ComputeTime,
			noise:    spec.NoiseStd,
			rng:      sim.NewRNG(jobSeed(seed, spec)),
			rec:      rec,
			flow:     i + 1,
			maxIters: spec.MaxIterations,
		}
		if cwndEvery > 0 {
			jobs[i].trace = tcp.SampleCwnd(f.Sender, cwndEvery)
		}
		off := spec.StartOffset
		if offsets != nil {
			off = offsets[i]
		}
		jobs[i].start(eng, off)
	}

	if rec.Enabled() {
		mjobs := make([]telemetry.ManifestJob, len(specs))
		for i, spec := range specs {
			mjobs[i] = telemetry.ManifestJob{
				Flow:         i + 1,
				Name:         spec.Label(),
				Profile:      spec.Profile.Name,
				IdealNS:      int64(spec.Profile.ComputeTime + bottleneck.TransmissionTime(jobs[i].bytes)),
				BytesPerIter: jobs[i].bytes,
			}
		}
		rec.SetManifest(newManifest(&s, b.Name(), seed, bottleneck, scale, mjobs))
	}

	// Self-metrics are out-of-band: the span reads the engine and the
	// topology but never feeds back, so traces and Results are identical
	// with or without a collector (pinned by obs_test.go).
	span := obs.FromContext(ctx).StartRun(b.Name())
	const chunks = 8
	for c := sim.Time(1); c <= chunks; c++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("backend: packet run aborted: %w", err)
		}
		eng.RunUntil(horizon * c / chunks)
		span.Heartbeat(eng.Pending())
	}
	if bwMon != nil {
		bwMon.EmitTo(rec)
	}
	span.Finish(eng.Fired(), horizon)

	res := &Result{
		Backend:  b.Name(),
		Scenario: s.Name,
		Policy:   s.Policy,
		Capacity: bottleneck,
		Scale:    scale,
		Duration: horizon,
	}
	for i, j := range jobs {
		spec := specs[i]
		jr := JobResult{
			Name:    spec.Label(),
			Profile: spec.Profile.Name,
			// Packet scaling preserves the unscaled ideal: bytes×scale
			// over capacity×scale plus the unscaled compute phase.
			Ideal:          spec.Profile.ComputeTime + bottleneck.TransmissionTime(j.bytes),
			BytesPerIter:   j.bytes,
			DeliveredBytes: j.sender.TotalBytesAcked(),
			CommStarts:     j.starts,
			CommEnds:       j.ends,
		}
		for k := 1; k < len(j.starts); k++ {
			jr.IterTimes = append(jr.IterTimes, j.starts[k]-j.starts[k-1])
		}
		for k := range j.ends {
			jr.FCTs = append(jr.FCTs, j.ends[k]-j.starts[k])
		}
		if j.trace != nil {
			jr.CwndTrace = j.trace.Values()
			if n := len(jr.CwndTrace); n > 0 {
				jr.FinalCwnd = jr.CwndTrace[n-1]
			}
		}
		res.Jobs = append(res.Jobs, jr)
	}
	finishResult(res)
	return res, nil
}

// buildCC constructs the per-flow congestion control (MLTCP state is
// per-flow and must never be shared between jobs).
func buildCC(base string, ml bool, agg *core.AggFunc, totalBytes int64, compute sim.Time) (tcp.CongestionControl, error) {
	var cc tcp.CongestionControl
	switch base {
	case "reno":
		cc = tcp.NewReno()
	case "cubic":
		cc = tcp.NewCubic()
	case "dctcp":
		cc = tcp.NewDCTCP()
	case "d2tcp":
		cc = tcp.NewD2TCP()
	case "swift":
		cc = tcp.NewSwift()
	default:
		return nil, fmt.Errorf("backend: unknown congestion control %q", base)
	}
	if !ml {
		return cc, nil
	}
	if agg == nil {
		return nil, fmt.Errorf("backend: mltcp policy without an aggressiveness function")
	}
	gap := compute / 4
	if gap < minTrackerGap {
		gap = minTrackerGap
	}
	return core.Wrap(cc, *agg, core.NewTracker(totalBytes, gap)), nil
}

// Compile-time interface checks.
var (
	_ Backend = (*Fluid)(nil)
	_ Backend = (*Packet)(nil)
)
