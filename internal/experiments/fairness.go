package experiments

import (
	"math"

	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/units"
)

// FairnessResult covers §5's "Fairness between MLTCP and TCP flows". The
// operative claims measured here: (1) at the same packet-loss probability,
// an MLTCP-Reno flow achieves higher throughput than a standard Reno flow
// (the paper derives 1/p vs Reno's Mathis 1/√p; with the default bounded
// F ∈ [0.25, 2] the asymptotic exponent we measure stays ≈ −0.5 for both,
// and the advantage appears as a multiplicative factor up to √F(1) — see
// EXPERIMENTS.md for the deviation note); and (2) an MLTCP flow claims more
// than its fair share against a legacy Reno flow on a shared bottleneck but
// does not starve it. Flows are measured deep into an iteration
// (bytes_ratio ≈ 1, F = 2), the regime §5's comparison is about.
type FairnessResult struct {
	LossProbs []float64
	// RenoMbps and MLTCPMbps are single-flow goodputs at each loss rate.
	RenoMbps  []float64
	MLTCPMbps []float64
	// RenoExponent and MLTCPExponent are fitted log-log slopes of
	// goodput vs loss probability (both ≈ −0.5; see above).
	RenoExponent  float64
	MLTCPExponent float64
	// AdvantageRatio is the geometric mean of MLTCP/Reno goodput across
	// the loss sweep (expected ≈ √2 for F(1) = 2).
	AdvantageRatio float64
	// ShareRatio is MLTCP/Reno goodput when coexisting on one link
	// (> 1: MLTCP claims more than its fair share).
	ShareRatio float64
	// RenoShareOfFair is the coexisting Reno flow's goodput relative to
	// its fair half-share (must stay well above zero: no starvation).
	RenoShareOfFair float64
}

// The packet-level fairness testbed: a 100 Mbps bottleneck with ~10 ms RTT
// so that at the swept loss rates the congestion window — not the
// application — limits throughput, and per-iteration volumes that preserve
// the DNN write/compute loop MLTCP's bytes_ratio depends on.
const (
	fairnessRate      = 100 * units.Mbps
	fairnessIterBytes = 12_000_000
	fairnessComp      = 300 * sim.Millisecond
)

func fairnessNet(eng *sim.Engine, pairs int, lossProb float64, seed uint64) *netsim.Dumbbell {
	d := netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        1 * units.Gbps,
		BottleneckRate:  fairnessRate,
		HostDelay:       50 * sim.Microsecond,
		BottleneckDelay: 5 * sim.Millisecond,
		// Deep buffer so queue drops don't mask the injected loss.
		BottleneckQueue: func() netsim.Queue { return netsim.NewDropTail(2000 * netsim.DefaultMTU) },
	})
	if lossProb > 0 {
		d.Forward.LossProb = lossProb
		d.Forward.RNG = sim.NewRNG(seed)
	}
	return d
}

func mltcpCC() tcp.CongestionControl {
	return core.Wrap(tcp.NewReno(), core.Default(),
		core.NewTracker(fairnessIterBytes, fairnessComp/2))
}

// backlog is a demand far larger than any horizon can drain, so the flow
// is permanently window-limited and (for MLTCP) sits at bytes_ratio = 1
// after the first TOTAL_BYTES — the deep-in-iteration regime.
const backlog = int64(1) << 40

// singleFlowGoodput measures one flow's goodput in Mbps over the horizon.
func singleFlowGoodput(cc tcp.CongestionControl, lossProb float64, seed uint64, horizon sim.Time) float64 {
	eng := sim.New()
	net := fairnessNet(eng, 1, lossProb, seed)
	f := tcp.NewFlow(eng, 1, net.Left[0], net.Right[0], cc, tcp.Config{})
	f.Sender.Write(backlog)
	eng.RunUntil(horizon)
	return float64(f.Sender.TotalBytesAcked()) * 8 / horizon.Seconds() / 1e6
}

// Fairness regenerates the §5 fairness analysis with the given per-run
// horizon (shorter horizons trade precision for speed).
func Fairness(horizon sim.Time) FairnessResult {
	res := FairnessResult{LossProbs: []float64{0.002, 0.004, 0.008, 0.016, 0.032}}
	for i, p := range res.LossProbs {
		seed := uint64(100 + i) // distinct root seed per loss-probability point
		res.RenoMbps = append(res.RenoMbps, singleFlowGoodput(tcp.NewReno(), p, seed, horizon))
		res.MLTCPMbps = append(res.MLTCPMbps, singleFlowGoodput(mltcpCC(), p, seed, horizon))
	}
	res.RenoExponent = fitLogLogSlope(res.LossProbs, res.RenoMbps)
	res.MLTCPExponent = fitLogLogSlope(res.LossProbs, res.MLTCPMbps)
	geo := 1.0
	for i := range res.LossProbs {
		geo *= res.MLTCPMbps[i] / res.RenoMbps[i]
	}
	res.AdvantageRatio = math.Pow(geo, 1/float64(len(res.LossProbs)))

	// Coexistence: Reno and MLTCP-Reno share a clean bottleneck; the
	// only loss is their shared queue overflowing.
	eng := sim.New()
	const coexistSeed = 0 // lossless links: the loss RNG is never drawn
	net := fairnessNet(eng, 2, 0, coexistSeed)
	fr := tcp.NewFlow(eng, 1, net.Left[0], net.Right[0], tcp.NewReno(), tcp.Config{})
	fm := tcp.NewFlow(eng, 2, net.Left[1], net.Right[1], mltcpCC(), tcp.Config{})
	fr.Sender.Write(backlog)
	fm.Sender.Write(backlog)
	eng.RunUntil(horizon)
	reno := float64(fr.Sender.TotalBytesAcked())
	ml := float64(fm.Sender.TotalBytesAcked())
	res.ShareRatio = ml / reno
	fairHalf := float64(fairnessRate) / 8 * horizon.Seconds() / 2
	res.RenoShareOfFair = reno / fairHalf
	return res
}

// fitLogLogSlope least-squares fits log(y) = a + b·log(x) and returns b.
func fitLogLogSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
