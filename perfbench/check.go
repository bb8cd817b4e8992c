package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"mltcp/internal/backend"
	"mltcp/internal/sim"
)

// check verifies one op's output on its own terms: byte conservation and
// no iteration faster than ideal on the exact tier, and for the trace
// workload an exact round trip of the convergence point and every FCT.
func check(out *opResult) error {
	for _, j := range out.exact.Jobs {
		done := int64(len(j.CommEnds))
		if j.DeliveredBytes < done*j.BytesPerIter || j.DeliveredBytes > (done+1)*j.BytesPerIter {
			return fmt.Errorf("job %s delivered %d bytes over %d iterations of %d", j.Name, j.DeliveredBytes, done, j.BytesPerIter)
		}
		for k, d := range j.IterTimes {
			if d < j.Ideal {
				return fmt.Errorf("job %s iteration %d took %v, below its ideal %v", j.Name, k, d, j.Ideal)
			}
		}
	}
	if rt := out.roundTrip; rt != nil {
		if rt.InterleavedAt != out.exact.InterleavedAt {
			return fmt.Errorf("trace round trip: interleaved at %d, run said %d", rt.InterleavedAt, out.exact.InterleavedAt)
		}
		if len(rt.Jobs) != len(out.exact.Jobs) {
			return fmt.Errorf("trace round trip: %d jobs, run had %d", len(rt.Jobs), len(out.exact.Jobs))
		}
		for i, j := range out.exact.Jobs {
			if !equalTimes(rt.Jobs[i].FCTs, j.FCTs) {
				return fmt.Errorf("trace round trip: job %s FCTs differ from the run's", j.Name)
			}
		}
	}
	return nil
}

func equalTimes(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digest hashes every simulated statistic of an op, so a later op on the
// same input can be checked against the first in constant space.
func digest(out *opResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range []*backend.Result{out.exact, out.learned, out.roundTrip} {
		if r == nil {
			put(0)
			continue
		}
		put(uint64(int64(r.InterleavedAt)))
		put(math.Float64bits(r.OverlapScore))
		for _, j := range r.Jobs {
			put(uint64(j.DeliveredBytes))
			put(uint64(len(j.CommStarts)))
			for _, t := range j.CommStarts {
				put(uint64(t))
			}
			for _, t := range j.CommEnds {
				put(uint64(t))
			}
		}
	}
	put(uint64(out.traceEvents))
	put(uint64(out.traceBytes))
	put(uint64(out.limiterDrops))
	put(uint64(out.attributedIters))
	h.Write([]byte(out.verdict))
	return h.Sum64()
}

// outcome is the simulated result of a workload's inputs, taken from the
// exact tier except slowdownErr, the learned tier's error against it.
type outcome struct {
	slowdownGeomean float64 // geometric mean slowdown over every job with an iteration
	overlapMean     float64 // mean whole-horizon overlap score over inputs
	interleavedFrac float64 // share of iterations within InterleaveTol of ideal
	slowdownErr     float64 // mean |learned/exact - 1| of per-job slowdowns
}

func outcomeOf(outs []*opResult) outcome {
	var o outcome
	var logSum float64
	var jobs, iters, inTol, errJobs int
	for _, out := range outs {
		r := out.exact
		o.overlapMean += backend.OverlapScoreOf(r.Jobs, 0, r.Duration)
		for i, j := range r.Jobs {
			if len(j.IterTimes) == 0 {
				continue
			}
			s := j.Slowdown(0)
			logSum += math.Log(s)
			jobs++
			for _, d := range j.IterTimes {
				iters++
				if d.Seconds()/j.Ideal.Seconds()-1 <= backend.InterleaveTol {
					inTol++
				}
			}
			if lj := out.learned.Jobs[i]; len(lj.IterTimes) > 0 {
				o.slowdownErr += math.Abs(lj.Slowdown(0)/s - 1)
				errJobs++
			}
		}
	}
	o.overlapMean /= float64(len(outs))
	if jobs > 0 {
		o.slowdownGeomean = math.Exp(logSum / float64(jobs))
	}
	if iters > 0 {
		o.interleavedFrac = float64(inTol) / float64(iters)
	}
	if errJobs > 0 {
		o.slowdownErr /= float64(errJobs)
	}
	return o
}
