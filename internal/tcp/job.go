package tcp

import (
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// Job drives one sender through a DNN training job's loop: write Bytes,
// wait until they are all acknowledged, compute for Compute, repeat. It
// records each communication phase's start and end.
type Job struct {
	Sender  *Sender
	Bytes   int64
	Compute sim.Time
	// Noise is the std of zero-mean Gaussian noise added to every compute
	// phase (the §4 perturbation model), drawn from RNG.
	Noise sim.Time
	RNG   *sim.RNG
	// MaxIters ends the job after that many communication phases (0 runs
	// it to the horizon).
	MaxIters int
	// Rec receives the job's iteration events as flow Flow (nil disables).
	Rec  *telemetry.Recorder
	Flow int

	// Starts and Ends bracket each communication phase; a phase still in
	// flight at the horizon has a start without an end.
	Starts, Ends []sim.Time
}

// Start schedules the job's first communication phase at offset.
func (j *Job) Start(eng *sim.Engine, offset sim.Time) {
	j.Sender.Drained(func(now sim.Time) {
		j.Ends = append(j.Ends, now)
		j.Rec.IterEnd(now, j.Flow, len(j.Ends)-1, now-j.Starts[len(j.Ends)-1])
		if j.MaxIters > 0 && len(j.Ends) >= j.MaxIters {
			return // the job departs after its configured iteration budget
		}
		compute := j.Compute
		if j.Noise > 0 {
			compute = j.RNG.NormDuration(compute, j.Noise, 0)
		}
		eng.After(compute, func(e *sim.Engine) { j.begin(e) })
	})
	eng.At(offset, func(e *sim.Engine) { j.begin(e) })
}

func (j *Job) begin(eng *sim.Engine) {
	j.Starts = append(j.Starts, eng.Now())
	j.Rec.IterStart(eng.Now(), j.Flow, len(j.Starts)-1)
	j.Sender.Write(j.Bytes)
}

// IterTimes returns the training iteration durations, each the gap
// between successive communication-phase starts.
func (j *Job) IterTimes() []sim.Time {
	var ts []sim.Time
	for k := 1; k < len(j.Starts); k++ {
		ts = append(ts, j.Starts[k]-j.Starts[k-1])
	}
	return ts
}
