package experiments

import (
	"mltcp/internal/core"
	"mltcp/internal/metrics"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/workload"
)

// MixedTrafficResult stresses MLTCP with what a shared cluster actually
// carries: two MLTCP DNN jobs plus Poisson websearch background traffic on
// the same bottleneck. The jobs should still interleave (their steady
// iteration time inflated only by the background's bandwidth share) and
// the background flows must not be starved.
type MixedTrafficResult struct {
	// JobSteady are the two jobs' steady-state iteration times.
	JobSteady []sim.Time
	// JobIdeal is the no-contention iteration time.
	JobIdeal sim.Time
	// BackgroundLoad is the offered background load (fraction of the
	// bottleneck).
	BackgroundLoad float64
	// BackgroundCompleted / BackgroundStarted count background flows.
	BackgroundStarted   int
	BackgroundCompleted int
	// BackgroundShortMeanMS is the mean FCT of background flows <100KB.
	BackgroundShortMeanMS float64
}

// MixedTraffic runs the scenario at packet level.
func MixedTraffic(load float64, horizon sim.Time, seed uint64) MixedTrafficResult {
	eng := sim.New()
	// Two job pairs plus two pairs carrying background traffic.
	net := plDumbbell(eng, 4)

	profile := scaledGPT2()
	bytes := int64(profile.CommBytes)
	jobs := make([]*tcp.Job, 2)
	for i := range jobs {
		cc := core.Wrap(tcp.NewReno(), core.Default(), core.NewTracker(bytes, 400*sim.Millisecond))
		f := tcp.NewFlow(eng, netsim.FlowID(i+1), net.Left[i], net.Right[i], cc, tcp.Config{})
		jobs[i] = &tcp.Job{Sender: f.Sender, Bytes: bytes, Compute: profile.ComputeTime}
		jobs[i].Start(eng, sim.Time(i)*StaggerOffset)
	}

	// Background: websearch flows between pairs 2 and 3.
	dist := workload.WebSearch()
	rng := sim.NewRNG(seed)
	arrivals := workload.NewPoissonArrivals(load*float64(plRate)/8/dist.Mean(), rng.Fork())
	sizeRNG := rng.Fork()
	pairRNG := rng.Fork()

	type rec struct {
		size        int64
		start, done sim.Time
	}
	var bg []*rec
	nextID := netsim.FlowID(1000)
	var launch func(e *sim.Engine)
	launch = func(e *sim.Engine) {
		if e.Now() >= horizon {
			return
		}
		r := &rec{size: dist.Sample(sizeRNG), start: e.Now()}
		bg = append(bg, r)
		pair := 2 + pairRNG.Intn(2)
		f := tcp.NewFlow(e, nextID, net.Left[pair], net.Right[pair], tcp.NewReno(), tcp.Config{})
		nextID++
		f.Sender.Drained(func(now sim.Time) { r.done = now })
		f.Sender.Write(r.size)
		e.After(arrivals.Next(), launch)
	}
	eng.At(0, launch)
	eng.RunUntil(horizon + 10*sim.Second)

	res := MixedTrafficResult{
		JobIdeal:       plIdeal(profile),
		BackgroundLoad: load,
	}
	for _, j := range jobs {
		res.JobSteady = append(res.JobSteady, lastMean(j.IterTimes(), 10))
	}
	var short metrics.Series
	res.BackgroundStarted = len(bg)
	for _, r := range bg {
		if r.done == 0 {
			continue
		}
		res.BackgroundCompleted++
		if r.size < 100_000 {
			short = append(short, (r.done-r.start).Seconds()*1000)
		}
	}
	res.BackgroundShortMeanMS = short.Mean()
	return res
}
