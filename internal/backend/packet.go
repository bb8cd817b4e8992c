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
)

// Packet runs scenarios on the packet-level stack: a dumbbell topology
// sized from the scenario, one TCP flow per job driven through the DNN
// write/compute loop, with real loss, RTO, ACK clocking and (for DCTCP /
// D2TCP) ECN marking. The scenario is rendered at its PacketScale — the
// bottleneck runs at Capacity×scale and byte volumes shrink likewise, so
// every iteration time matches the fluid rendering while packet counts
// stay tractable. The zero value is ready to use.
type Packet struct{}

// Name implements Backend.
func (*Packet) Name() string { return NamePacket }

// Packet-level topology constants, matching the paper's 1/100-scale
// testbed rendering used throughout internal/experiments.
const (
	hostRateFactor  = 10 // edge links at 10× bottleneck: contention only at the bottleneck
	hostDelay       = 10 * sim.Microsecond
	bottleneckDelay = 30 * sim.Microsecond
	ecnThreshold    = 20 // marking threshold in MTU-sized packets
	// cwndSampleEvery is the congestion-window sampling interval for
	// JobResult.CwndTrace.
	cwndSampleEvery = 250 * sim.Millisecond
)

// minTrackerGap floors Algorithm 1's COMP_TIME ack-gap threshold so jobs
// with tiny compute phases still get a positive boundary detector.
const minTrackerGap = 50 * sim.Millisecond

// pktJob is one job's compute/communicate driver plus its
// congestion-window trace.
type pktJob struct {
	tcp.Job
	trace *tcp.CwndTrace
}

// Run implements Backend.
func (b *Packet) Run(ctx context.Context, scn *config.Scenario, seed uint64) (*Result, error) {
	var base string
	var ml bool
	c, err := compile(ctx, scn, b.Name(), seed, func(s config.Scenario) (float64, error) {
		var ok bool
		base, ml, ok = s.CC()
		if !ok && !s.Centralized() {
			return 0, fmt.Errorf("backend: packet level does not implement policy %q; supported: %s, and centralized (%s are fluid-only)",
				s.Policy, strings.Join(config.CCPolicyNames(), ", "),
				strings.Join(config.FluidOnlyPolicyNames(), ", "))
		}
		if s.Topology != nil {
			return 0, fmt.Errorf("backend: packet level renders only the dumbbell; run topology %q on the %s backend",
				s.Topology.Label(), NameFluid)
		}
		if s.Centralized() {
			base, ml = "reno", false // the optimizer schedules; transport is plain TCP
		}
		return s.Scale(), nil
	})
	if err != nil {
		return nil, err
	}
	res := c.res

	eng := sim.New()
	cfg := netsim.DumbbellConfig{
		HostPairs:       len(c.specs),
		HostRate:        res.Capacity * hostRateFactor,
		BottleneckRate:  res.Capacity,
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

	horizon := res.Duration
	rec := telemetry.FromContext(ctx)
	var bwMon *netsim.BandwidthMonitor
	if rec.Enabled() {
		net.Forward.SetTelemetry(rec)
		netsim.NewQueueSampler(eng, net.Forward, telemetry.DefaultSampleEvery, 0, horizon, rec)
		bwMon = netsim.NewBandwidthMonitor(net.Forward, telemetry.DefaultSampleEvery)
	}

	jobs := make([]*pktJob, len(c.specs))
	for i, spec := range c.specs {
		bytes := res.Jobs[i].BytesPerIter
		if bytes < 1 {
			return nil, fmt.Errorf("backend: job %s: comm volume %v at packet scale %v rounds to zero bytes",
				spec.Label(), spec.Profile.CommBytes, res.Scale)
		}
		cc, err := buildCC(base, ml, c.s.Agg(), bytes, spec.Profile.ComputeTime)
		if err != nil {
			return nil, err
		}
		if m, ok := cc.(*core.MLTCP); ok {
			m.Instrument(rec, i+1)
		}
		f := tcp.NewFlow(eng, netsim.FlowID(i+1), net.Left[i], net.Right[i],
			cc, tcp.Config{ECN: ecn, Trace: rec})
		jobs[i] = &pktJob{Job: tcp.Job{
			Sender:   f.Sender,
			Bytes:    bytes,
			Compute:  spec.Profile.ComputeTime,
			Noise:    spec.NoiseStd,
			RNG:      sim.NewRNG(spec.Seed),
			MaxIters: spec.MaxIterations,
			Rec:      rec,
			Flow:     i + 1,
		}}
		jobs[i].trace = tcp.SampleCwnd(f.Sender, cwndSampleEvery)
		jobs[i].Start(eng, spec.StartOffset)
	}

	// Self-metrics are out-of-band: the span reads the engine and the
	// topology but never feeds back, so traces and Results are identical
	// with or without a collector (pinned by obs_test.go).
	span := obs.FromContext(ctx).StartRun(b.Name())
	const chunks = 8
	for k := sim.Time(1); k <= chunks; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("backend: packet run aborted: %w", err)
		}
		eng.RunUntil(horizon * k / chunks)
		span.Heartbeat(eng.Pending())
	}
	if bwMon != nil {
		bwMon.EmitTo(rec)
	}
	span.Finish(eng.Fired(), horizon)

	for i, j := range jobs {
		jr := &res.Jobs[i]
		jr.DeliveredBytes = j.Sender.TotalBytesAcked()
		jr.CommStarts = j.Starts
		jr.CommEnds = j.Ends
		jr.IterTimes = j.IterTimes()
		for k := range j.Ends {
			jr.FCTs = append(jr.FCTs, j.Ends[k]-j.Starts[k])
		}
		jr.CwndTrace = j.trace.Values()
		if n := len(jr.CwndTrace); n > 0 {
			jr.FinalCwnd = jr.CwndTrace[n-1]
		}
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
	_ Backend = (*Learned)(nil)
)
