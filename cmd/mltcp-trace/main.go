// Command mltcp-trace summarizes a JSONL telemetry trace written by
// `mltcpsim -trace`: the run manifest, per-flow iteration and congestion
// statistics, ASCII charts of congestion-window and queue-occupancy
// evolution, and the interleaving scores recomputed from the event
// stream with the backend's exact arithmetic — so a traced run's summary
// agrees with the untraced result.
//
// Examples:
//
//	mltcpsim -jobs gpt2,gpt2 -level packet -duration 60s -trace run.jsonl
//	mltcp-trace run.jsonl
//	mltcp-trace -flow 2 -events run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mltcp/internal/backend"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	"mltcp/internal/trace"
)

var (
	flowFlag    = flag.Int("flow", 0, "restrict the per-flow sections to this flow ID (0 = all)")
	eventsFlag  = flag.Bool("events", false, "also print the raw event counts per (kind, flow)")
	widthFlag   = flag.Int("width", 100, "chart width in columns")
	skipFlag    = flag.Int("skip", 20, "iterations to skip in steady-state averages")
	jsonFlag    = flag.Bool("json", false, "emit the summary as stable machine-readable JSON instead of text")
	explainFlag = flag.Bool("explain", false,
		"explain the run instead of summarizing it: interleave verdict, phase bands, and per-iteration bottleneck attribution (with -json, the interleave report as stable JSON)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mltcp-trace [flags] trace.jsonl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(path string) error {
	tr, err := telemetry.ReadTrace(path)
	if err != nil {
		return err
	}
	if *explainFlag {
		return explain(os.Stdout, tr, *jsonFlag)
	}

	res, err := backend.ResultFromTrace(tr.Manifest, tr.Events)
	if err != nil {
		return err
	}
	if *jsonFlag {
		return writeJSON(os.Stdout, tr, res, *skipFlag)
	}

	printManifest(tr.Manifest)
	if tr.Manifest.Predicted {
		fmt.Println("predicted run (learned backend): manifest-only trace — event-derived sections are empty")
	}
	fmt.Printf("interleaved-at=%d overlap=%.3f (recomputed from %d events)\n\n",
		res.InterleavedAt, res.OverlapScore, len(tr.Events))
	if c := res.Cluster; c != nil {
		fmt.Printf("cluster: topology=%s racks=%d links=%d sharing-pairs=%d (overlap %.3f) disjoint-pairs=%d (overlap %.3f)\n\n",
			c.Topology, c.Racks, c.Links, c.SharingPairs, c.SharedOverlap, c.DisjointPairs, c.DisjointOverlap)
	}

	printJobs(res)
	printCongestion(tr)
	printCharts(tr, res)
	printInterleaveEvolution(os.Stdout, res)
	if tr.Metrics != nil {
		printMetrics(tr.Metrics)
	}
	if *eventsFlag {
		printEventCounts(tr.Events)
	}
	return nil
}

func printManifest(m *telemetry.Manifest) {
	fmt.Printf("scenario=%s backend=%s policy=%s seed=%d capacity=%.3gGbps scale=%g duration=%v",
		m.Scenario, m.Backend, m.Policy, m.Seed, m.CapacityGbps, m.Scale, m.Duration())
	if m.Revision != "" {
		fmt.Printf(" revision=%.12s", m.Revision)
	}
	if m.Predicted {
		fmt.Printf(" predicted=true")
	}
	fmt.Println()
}

func printJobs(res *backend.Result) {
	var rows [][]string
	for _, j := range res.Jobs {
		rows = append(rows, []string{
			j.Name,
			j.Profile,
			fmt.Sprintf("%d", j.Iterations()),
			fmt.Sprintf("%.3f", j.SteadyIter(*skipFlag).Seconds()),
			fmt.Sprintf("%.3f", j.Ideal.Seconds()),
			fmt.Sprintf("%.2f×", j.Slowdown(*skipFlag)),
		})
	}
	fmt.Print(trace.Table(
		[]string{"job", "profile", "iters", "avg iter (s)", "ideal (s)", "slowdown"}, rows))
	fmt.Println()
}

// flowStats aggregates the congestion-related events of one flow.
type flowStats struct {
	retx, rto, recoveries int
	cwndSamples           int
	lastCwnd              float64
	aggSamples            int
	lastRatio, lastFactor float64
}

// collectFlowStats aggregates the congestion-related events per flow,
// returning the stats map and the flow IDs in ascending order — shared
// by the text and -json renderings so both report the same numbers.
func collectFlowStats(events []telemetry.Event) (map[int]*flowStats, []int) {
	stats := map[int]*flowStats{}
	get := func(flow int) *flowStats {
		s, ok := stats[flow]
		if !ok {
			s = &flowStats{}
			stats[flow] = s
		}
		return s
	}
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindRetransmit:
			get(e.Flow).retx++
		case telemetry.KindRTO:
			get(e.Flow).rto++
		case telemetry.KindFastRecovery:
			get(e.Flow).recoveries++
		case telemetry.KindCwnd:
			s := get(e.Flow)
			s.cwndSamples++
			s.lastCwnd = e.V0
		case telemetry.KindAgg:
			s := get(e.Flow)
			s.aggSamples++
			s.lastRatio, s.lastFactor = e.V0, e.V1
		}
	}
	flows := make([]int, 0, len(stats))
	for f := range stats {
		flows = append(flows, f)
	}
	sort.Ints(flows)
	return stats, flows
}

func printCongestion(tr *telemetry.Trace) {
	stats, flows := collectFlowStats(tr.Events)
	if len(stats) == 0 {
		return
	}
	var rows [][]string
	for _, f := range flows {
		if *flowFlag != 0 && f != *flowFlag {
			continue
		}
		s := stats[f]
		rows = append(rows, []string{
			fmt.Sprintf("%d", f),
			fmt.Sprintf("%d", s.retx),
			fmt.Sprintf("%d", s.rto),
			fmt.Sprintf("%d", s.recoveries),
			fmt.Sprintf("%d", s.cwndSamples),
			fmt.Sprintf("%.1f", s.lastCwnd),
			fmt.Sprintf("%.3f", s.lastFactor),
		})
	}
	fmt.Print(trace.Table(
		[]string{"flow", "retx", "rto", "recoveries", "cwnd samples", "final cwnd", "final F"}, rows))
	fmt.Println()
}

// downsample coarsens vals to at most n points by averaging runs.
func downsample(vals []float64, n int) []float64 {
	if len(vals) <= n {
		return vals
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(vals)/n, (i+1)*len(vals)/n
		var sum float64
		for _, v := range vals[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

func printCharts(tr *telemetry.Trace, res *backend.Result) {
	cwnd := map[int][]float64{}
	var queue []float64
	for _, e := range tr.Events {
		switch e.Kind {
		case telemetry.KindCwnd:
			if *flowFlag == 0 || e.Flow == *flowFlag {
				cwnd[e.Flow] = append(cwnd[e.Flow], e.V0)
			}
		case telemetry.KindQueue:
			queue = append(queue, float64(e.N)/1e3)
		}
	}
	if len(cwnd) > 0 {
		flows := make([]int, 0, len(cwnd))
		for f := range cwnd {
			flows = append(flows, f)
		}
		sort.Ints(flows)
		var series []trace.Series
		for _, f := range flows {
			series = append(series, trace.Series{
				Name:   fmt.Sprintf("flow %d", f),
				Values: downsample(cwnd[f], *widthFlag),
			})
		}
		fmt.Print(trace.Chart("cwnd (packets)", *widthFlag, 10, series...))
		fmt.Println()
	}
	if len(queue) > 0 {
		fmt.Print(trace.Chart("bottleneck queue (KB)", *widthFlag, 8,
			trace.Series{Name: "queue", Values: downsample(queue, *widthFlag)}))
		fmt.Println()
	}
}

// printInterleaveEvolution shows how the overlap score evolves over the
// horizon: the fraction of communication time colliding with another job,
// per quarter of the run — the signature of MLTCP's emergent interleaving
// is this decaying toward zero. The closing line spells the convergence
// iteration out, with -1 rendered as "never" instead of a bare sentinel.
func printInterleaveEvolution(w io.Writer, res *backend.Result) {
	if res.Duration <= 0 || len(res.Jobs) < 2 {
		return
	}
	var rows [][]string
	const parts = 4
	for q := 0; q < parts; q++ {
		from := res.Duration * sim.Time(q) / parts
		until := res.Duration * sim.Time(q+1) / parts
		score := backend.OverlapScoreOf(res.Jobs, from, until)
		rows = append(rows, []string{
			fmt.Sprintf("%v–%v", from, until),
			fmt.Sprintf("%.3f", score),
		})
	}
	fmt.Fprint(w, trace.Table([]string{"window", "overlap"}, rows))
	if res.InterleavedAt < 0 {
		fmt.Fprintln(w, "interleaved-at: never (within horizon)")
	} else {
		fmt.Fprintf(w, "interleaved-at: iter %d\n", res.InterleavedAt)
	}
	fmt.Fprintln(w)
}

func printMetrics(s *telemetry.Snapshot) {
	var rows [][]string
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rows = append(rows, []string{n, fmt.Sprintf("%d", s.Counters[n])})
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		rows = append(rows, []string{n, fmt.Sprintf("n=%d mean=%.4g", h.Count, mean)})
	}
	if len(rows) == 0 {
		return
	}
	fmt.Print(trace.Table([]string{"metric", "value"}, rows))
}

func printEventCounts(events []telemetry.Event) {
	type key struct {
		kind telemetry.Kind
		flow int
	}
	counts := map[key]int{}
	for _, e := range events {
		counts[key{e.Kind, e.Flow}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].flow < keys[j].flow
	})
	fmt.Println()
	var rows [][]string
	for _, k := range keys {
		rows = append(rows, []string{
			k.kind.String(), fmt.Sprintf("%d", k.flow), fmt.Sprintf("%d", counts[k]),
		})
	}
	fmt.Print(trace.Table([]string{"kind", "flow", "count"}, rows))
}
