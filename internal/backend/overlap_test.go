package backend

import (
	"fmt"
	"math"
	"testing"

	"mltcp/internal/sim"
)

// refAppendCommEdges is appendCommEdges before the merge: the clipped
// edges in phase order, never sorted.
func refAppendCommEdges(edges []commEdge, j *JobResult, from, until sim.Time) []commEdge {
	for i, s := range j.CommStarts {
		e := until
		if i < len(j.CommEnds) {
			e = j.CommEnds[i]
		}
		if e <= from || s >= until {
			continue
		}
		if s < from {
			s = from
		}
		if e > until {
			e = until
		}
		if e > s {
			edges = append(edges, commEdge{s, +1}, commEdge{e, -1})
		}
	}
	return edges
}

// refSweepOverlap is the retired sweep: an insertion sort of the
// concatenated edges by time, ends before starts at ties, then one pass.
func refSweepOverlap(edges []commEdge) float64 {
	if len(edges) == 0 {
		return 0
	}
	for i := 1; i < len(edges); i++ {
		for k := i; k > 0 && (edges[k].at < edges[k-1].at ||
			(edges[k].at == edges[k-1].at && edges[k].d < edges[k-1].d)); k-- {
			edges[k], edges[k-1] = edges[k-1], edges[k]
		}
	}
	var commTime, overlapTime float64
	depth := 0
	prev := edges[0].at
	for _, e := range edges {
		dt := (e.at - prev).Seconds()
		if depth > 0 {
			commTime += float64(depth) * dt
			if depth > 1 {
				overlapTime += float64(depth-1) * dt
			}
		}
		depth += e.d
		prev = e.at
	}
	if commTime == 0 {
		return 0
	}
	return overlapTime / commTime
}

func refOverlapScore(jobs []JobResult, from, until sim.Time) float64 {
	var edges []commEdge
	for i := range jobs {
		edges = refAppendCommEdges(edges, &jobs[i], from, until)
	}
	return refSweepOverlap(edges)
}

// refFinishCluster is finishCluster over the reference sweep, each pair
// scored as refOverlapScore of the two jobs.
func refFinishCluster(r *Result) {
	c := r.Cluster
	c.SharingPairs, c.DisjointPairs = 0, 0
	c.SharedOverlap, c.DisjointOverlap = 0, 0
	from, until := r.Duration/2, r.Duration
	for i := range r.Jobs {
		for k := i + 1; k < len(r.Jobs); k++ {
			shared := false
			for _, a := range r.Jobs[i].PathLinks {
				for _, b := range r.Jobs[k].PathLinks {
					shared = shared || a == b
				}
			}
			ov := refOverlapScore([]JobResult{r.Jobs[i], r.Jobs[k]}, from, until)
			if shared {
				c.SharingPairs++
				c.SharedOverlap += ov
			} else {
				c.DisjointPairs++
				c.DisjointOverlap += ov
			}
		}
	}
	if c.SharingPairs > 0 {
		c.SharedOverlap /= float64(c.SharingPairs)
	}
	if c.DisjointPairs > 0 {
		c.DisjointOverlap /= float64(c.DisjointPairs)
	}
}

// overlapWindows returns the clip windows checked for a horizon: the
// whole run, each half, a middle third, a 1 ns window, an empty one, a
// reversed one and one wider than the run.
func overlapWindows(horizon sim.Time) [][2]sim.Time {
	return [][2]sim.Time{
		{0, horizon}, {horizon / 2, horizon}, {0, horizon / 2},
		{horizon / 3, horizon * 2 / 3}, {horizon / 7, horizon/7 + 1},
		{horizon / 2, horizon / 2}, {horizon, 0}, {-horizon, 2 * horizon},
	}
}

// checkOverlap compares the merged sweep with the reference, bit for
// bit, over one set of jobs: OverlapScoreOf over every window, and
// finishCluster's pair sweeps over the second half of the horizon.
func checkOverlap(t *testing.T, name string, jobs []JobResult, horizon sim.Time) {
	t.Helper()
	for _, w := range overlapWindows(horizon) {
		got := OverlapScoreOf(jobs, w[0], w[1])
		want := refOverlapScore(jobs, w[0], w[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: OverlapScoreOf over [%v, %v) = %v, reference %v", name, w[0], w[1], got, want)
		}
	}
	got := Result{Jobs: jobs, Duration: horizon, Cluster: &ClusterResult{}}
	want := Result{Jobs: jobs, Duration: horizon, Cluster: &ClusterResult{}}
	finishCluster(&got)
	refFinishCluster(&want)
	if *got.Cluster != *want.Cluster {
		t.Fatalf("%s: finishCluster %+v, reference %+v", name, *got.Cluster, *want.Cluster)
	}
}

// ms is a time in whole milliseconds.
func ms(n int) sim.Time { return sim.Time(n) * sim.Millisecond }

// periodicJob is a job with a comm phase of comm every iter from first,
// the last one unfinished when open is set, crossing links.
func periodicJob(first, iter, comm sim.Time, n int, open bool, links ...string) JobResult {
	j := JobResult{PathLinks: links}
	for k := 0; k < n; k++ {
		s := first + sim.Time(k)*iter
		j.CommStarts = append(j.CommStarts, s)
		if k < n-1 || !open {
			j.CommEnds = append(j.CommEnds, s+comm)
		}
	}
	return j
}

// randomJobs draws n periodic jobs on a millisecond grid, so edges of
// different jobs often fall at equal times, with random paths over four
// links and some phases left unfinished.
func randomJobs(rng *sim.RNG, n int, horizon sim.Time) []JobResult {
	jobs := make([]JobResult, n)
	for i := range jobs {
		iter := ms(20 + 10*rng.Intn(10))
		comm := ms(5 * (1 + rng.Intn(int(iter/ms(5)))))
		first := ms(10 * rng.Intn(10))
		links := []string{fmt.Sprint("l", rng.Intn(4)), fmt.Sprint("l", rng.Intn(4))}
		jobs[i] = periodicJob(first, iter, comm, int((horizon-first)/iter)+1, rng.Intn(3) == 0, links...)
	}
	return jobs
}

// TestOverlapMatchesReference pins the merged sweep, OverlapScoreOf and
// finishCluster's pair sweeps, bit for bit against the retired insertion
// sort.
func TestOverlapMatchesReference(t *testing.T) {
	t.Parallel()
	horizon := ms(1000)
	cases := map[string][]JobResult{
		"no jobs":    nil,
		"one job":    {periodicJob(0, ms(100), ms(40), 10, false)},
		"empty jobs": {{}, periodicJob(ms(5), ms(50), ms(25), 20, false), {}},
		// Equal-time edges across jobs: identical phases, and phases
		// that start together but end apart.
		"identical": {periodicJob(0, ms(100), ms(50), 10, false, "a"),
			periodicJob(0, ms(100), ms(50), 10, false, "a")},
		"common starts": {periodicJob(0, ms(100), ms(30), 10, false, "a"),
			periodicJob(0, ms(100), ms(70), 10, false, "b"), periodicJob(0, ms(50), ms(20), 20, false, "a")},
		// A phase that ends exactly when the next begins, in one job
		// (comm = iter) and across jobs (the second fills the gap).
		"back to back": {periodicJob(0, ms(100), ms(100), 10, false, "a"),
			periodicJob(ms(50), ms(100), ms(50), 10, false, "a")},
		"alternating": {periodicJob(0, ms(100), ms(50), 10, false, "a"),
			periodicJob(ms(50), ms(100), ms(50), 10, false, "b")},
		// An unfinished last phase runs to the window's end.
		"unfinished": {periodicJob(0, ms(90), ms(60), 12, true, "a"),
			periodicJob(ms(30), ms(90), ms(60), 12, true, "a")},
		// Phases cut by from and until (the windows split them).
		"clipped": {periodicJob(ms(480), ms(333), ms(300), 3, false, "a"),
			periodicJob(ms(499), ms(250), ms(240), 4, true, "b")},
		// Malformed timelines: overlapping phases within one job, and
		// several phases without an end.
		"overlapping phases": {periodicJob(0, ms(40), ms(100), 20, false, "a"),
			periodicJob(ms(10), ms(100), ms(50), 10, false, "a")},
		"open phases": {{CommStarts: []sim.Time{ms(100), ms(300), ms(600)}, CommEnds: []sim.Time{ms(200)}},
			{CommStarts: []sim.Time{ms(700), ms(100)}}},
		// A job whose phases overlap each other beside one with no
		// phases: the pair's score is the first job's overlap with
		// itself, not 0.
		"self-overlap beside empty": {periodicJob(0, ms(40), ms(100), 20, false, "a"), {PathLinks: []string{"b"}}},
	}
	for name, jobs := range cases {
		checkOverlap(t, name, jobs, horizon)
	}
	rng := sim.NewRNG(41)
	for _, n := range []int{0, 1, 2, 48} {
		for rep := 0; rep < 4; rep++ {
			checkOverlap(t, fmt.Sprintf("%d random jobs #%d", n, rep), randomJobs(rng, n, horizon), horizon)
		}
	}
	// More jobs than OverlapScoreOf's stack holds runs for.
	checkOverlap(t, "80 random jobs", randomJobs(rng, 80, horizon), horizon)
}

// FuzzOverlapMatchesReference is the differential comparison under the
// fuzzer: the input bytes lay out up to 64 jobs, each a count of phases
// then per phase a start and a length on a coarse grid (equal times are
// common), some left unfinished and some out of order, plus one to
// three path links; OverlapScoreOf over each window and finishCluster,
// its pair classes included, must match the reference bit for bit.
func FuzzOverlapMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0, 4, 10, 4, 20, 4, 0, 3, 0, 4, 10, 4, 20, 4, 0})
	f.Add([]byte{3, 2, 0, 5, 5, 5, 1, 2, 5, 5, 10, 5, 1, 1, 0, 255, 2})
	f.Add([]byte{2, 0x83, 1, 9, 8, 9, 20, 0, 0, 0x82, 40, 3, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		const grid = 5 * sim.Millisecond
		jobs := make([]JobResult, next()%65)
		for i := range jobs {
			head := next()
			phases, open := head&0x3f, (head>>6)&3
			var at sim.Time
			for k := 0; k < phases; k++ {
				at += sim.Time(next()-32) * grid // mostly forward, sometimes back
				jobs[i].CommStarts = append(jobs[i].CommStarts, at)
				if k < phases-open {
					jobs[i].CommEnds = append(jobs[i].CommEnds, at+sim.Time(next())*grid)
				}
			}
			links := next()
			for range 1 + links%3 {
				links /= 3
				jobs[i].PathLinks = append(jobs[i].PathLinks, fmt.Sprint(links%5))
			}
		}
		checkOverlap(t, "fuzz", jobs, sim.Time(1+next())*20*grid)
	})
}

// TestOverlapAllocatesNothingNew: the merge allocates nothing beyond the
// edge buffer. OverlapScoreOf allocates no more than the reference over 48
// jobs, finishCluster no more than its reference, and a sweep over a
// built edge buffer not at all.
func TestOverlapAllocatesNothingNew(t *testing.T) {
	horizon := ms(1000)
	jobs := randomJobs(sim.NewRNG(43), 48, horizon)
	score := testing.AllocsPerRun(20, func() { OverlapScoreOf(jobs, horizon/2, horizon) })
	refScore := testing.AllocsPerRun(20, func() { refOverlapScore(jobs, horizon/2, horizon) })
	if score > refScore {
		t.Errorf("OverlapScoreOf of 48 jobs: %v allocs, reference %v", score, refScore)
	}
	r := Result{Jobs: jobs, Duration: horizon, Cluster: &ClusterResult{}}
	cluster := testing.AllocsPerRun(20, func() { finishCluster(&r) })
	refCluster := testing.AllocsPerRun(20, func() { refFinishCluster(&r) })
	if cluster > refCluster {
		t.Errorf("finishCluster of 48 jobs: %v allocs, reference %v", cluster, refCluster)
	}
	var edges []commEdge
	var all []edgeRun
	for i := range jobs {
		start := len(edges)
		edges = appendCommEdges(edges, &jobs[i], 0, horizon)
		all = append(all, edgeRun{start, len(edges)})
	}
	runs := make([]edgeRun, len(all))
	pair := []edgeRun{all[0], all[1]}
	if sweep := testing.AllocsPerRun(20, func() {
		copy(runs, all)
		sweepOverlap(edges, runs)
		sweepOverlap(edges, pair)
		pair[0], pair[1] = all[0], all[1]
	}); sweep != 0 {
		t.Errorf("sweepOverlap allocated %v times, want 0", sweep)
	}
}
