// Package mltcp is a Go reproduction of "MLTCP: A Distributed Technique to
// Approximate Centralized Flow Scheduling For Machine Learning" (HotNets
// 2024). MLTCP augments a congestion-control algorithm so that its
// additive-increase step is scaled by a bandwidth aggressiveness function
// F(bytes_ratio) of the fraction of the current training iteration's bytes
// already delivered; competing DNN jobs then slide, iteration by iteration,
// into the interleaved schedule a centralized scheduler (Cassini) would
// compute — with no controller, priority queues, or switch support.
//
// This root package is a thin facade over the implementation packages:
//
//   - internal/core — MLTCP itself: aggressiveness functions (Equation 2
//     and the six functions of Figure 3), the per-flow iteration tracker of
//     Algorithm 1, TOTAL_BYTES/COMP_TIME auto-learning, and the wrapper
//     that augments any base congestion control.
//   - internal/tcp — the transport substrate: an app-limited TCP sender and
//     receiver with Reno, CUBIC, and DCTCP congestion control.
//   - internal/netsim — the packet-level network: links, queue disciplines
//     (drop-tail, pFabric priority, PIAS bands, ECN), switches, topologies.
//   - internal/fluid — a fast flow-level simulator for convergence studies,
//     with SRPT/LAS/PIAS baseline policies.
//   - internal/sched — the Cassini-like centralized interleaving optimizer.
//   - internal/analysis — §4's Shift and Loss functions, gradient-descent
//     convergence, and the Gaussian-noise error bound.
//   - internal/workload, internal/metrics, internal/trace — job profiles,
//     statistics, and figure rendering.
//   - internal/experiments — one harness per paper figure, driven by
//     cmd/mltcp-figures and internal/report.
//   - internal/harness — the deterministic parallel sweep runner: fans
//     experiment grids across a worker pool with per-point seed streams
//     (SplitMix64-derived), so results are bit-for-bit identical at any
//     worker count.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	cc := mltcp.Wrap(mltcp.NewRenoCC(), mltcp.DefaultAggressiveness(),
//	    mltcp.NewTracker(totalBytes, compTime))
//	flow := tcp.NewFlow(eng, id, srcHost, dstHost, cc, tcp.Config{})
package mltcp

import (
	"mltcp/internal/core"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
)

// AggFunc is a bandwidth aggressiveness function (Equation 2 in the paper
// is the linear instance).
type AggFunc = core.AggFunc

// Tracker carries Algorithm 1's per-flow iteration state.
type Tracker = core.Tracker

// Learner infers TOTAL_BYTES and COMP_TIME from the ACK stream.
type Learner = core.Learner

// MLTCP is the congestion-control wrapper implementing the paper's
// technique over any base algorithm.
type MLTCP = core.MLTCP

// CongestionControl is the pluggable window-update interface (modeled on
// Linux's pluggable congestion modules).
type CongestionControl = tcp.CongestionControl

// DefaultAggressiveness returns F(r) = 1.75·r + 0.25, the paper's choice.
func DefaultAggressiveness() AggFunc { return core.Default() }

// LinearAggressiveness returns F(r) = slope·r + intercept (Equation 2).
func LinearAggressiveness(slope, intercept float64) AggFunc { return core.Linear(slope, intercept) }

// PaperAggressivenessFunctions returns the six functions of Figure 3.
func PaperAggressivenessFunctions() []AggFunc { return core.PaperFunctions() }

// NewTracker initializes Algorithm 1 with known per-iteration volume and
// the compute-gap threshold.
func NewTracker(totalBytes int64, compTime sim.Time) *Tracker {
	return core.NewTracker(totalBytes, compTime)
}

// NewLearner returns an auto-learning ratio source (0 values take
// defaults).
func NewLearner(gap sim.Time, observations int) *Learner { return core.NewLearner(gap, observations) }

// Wrap augments a base congestion control with MLTCP.
func Wrap(base CongestionControl, agg AggFunc, src core.RatioSource) *MLTCP {
	return core.Wrap(base, agg, src)
}

// NewMLTCPReno returns the paper's evaluated configuration: Reno wrapped
// with the default linear aggressiveness function and known parameters.
func NewMLTCPReno(totalBytes int64, compTime sim.Time) *MLTCP {
	return core.NewReno(totalBytes, compTime)
}

// NewRenoCC, NewCubicCC, NewDCTCPCC, and NewSwiftCC expose the base
// algorithms (loss-based, cubic, ECN-proportional, and delay-based).
func NewRenoCC() CongestionControl  { return tcp.NewReno() }
func NewCubicCC() CongestionControl { return tcp.NewCubic() }
func NewDCTCPCC() CongestionControl { return tcp.NewDCTCP() }
func NewSwiftCC() CongestionControl { return tcp.NewSwift() }
