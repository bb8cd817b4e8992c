package diagnose

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mltcp/internal/backend"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// ReportSchema versions the explain report's JSON encoding.
const ReportSchema = 1

// bandThreshold is the pairwise-overlap fraction above which two flows
// count as phase-locked: more than half of the shorter flow's
// communication time collides with the other's.
const bandThreshold = 0.5

// IterPoint is one iteration of the interleave timeline.
type IterPoint struct {
	Iter int `json:"iter"`
	// Overlap is the backend's overlap score over the iteration's
	// communication window (0 = fully interleaved).
	Overlap float64 `json:"overlap"`
	// Bands groups the flows whose communication phases collide this
	// iteration (>bandThreshold pairwise); singletons are omitted.
	Bands [][]int `json:"bands"`
}

// FlowBand is a set of flows that stayed phase-locked over the final
// quarter of the horizon, and the link they contend on.
type FlowBand struct {
	Flows []int `json:"flows"`
	// Overlap is the minimum normalized pairwise collision fraction
	// within the band (1 = the pair always collides).
	Overlap float64 `json:"overlap"`
	// Link is the first path link all band members share (DefaultLink
	// for non-topology runs, "" if they share none).
	Link string `json:"link"`
}

// Report is the interleave explainer's verdict for one trace. Its
// convergence fields are recomputed through backend.ResultFromTrace, so
// they agree exactly with the producing run's backend.Result.
type Report struct {
	Scenario string `json:"scenario"`
	Backend  string `json:"backend"`
	Policy   string `json:"policy"`
	// InterleavedAt and OverlapScore mirror backend.Result (InterleavedAt
	// -1 = never converged within the horizon).
	InterleavedAt int     `json:"interleaved_at"`
	OverlapScore  float64 `json:"overlap_score"`
	// FinalQuarterOverlap is the overlap score over [3D/4, D) — the
	// steady state the locked-band detection looks at.
	FinalQuarterOverlap float64 `json:"final_quarter_overlap"`
	Converged           bool    `json:"converged"`
	// Predicted marks a learned-backend trace: no per-iteration events,
	// so the timeline is empty and the verdict is manifest-only.
	Predicted   bool        `json:"predicted"`
	Timeline    []IterPoint `json:"timeline"`
	LockedBands []FlowBand  `json:"locked_bands"`
	// Verdict is the one-line human conclusion.
	Verdict string `json:"verdict"`
}

// MarshalJSON encodes the report under its kind/schema header, with
// empty lists as [].
func (r Report) MarshalJSON() ([]byte, error) {
	type report Report // the fields without this method
	r.Timeline, r.LockedBands = orEmpty(r.Timeline), orEmpty(r.LockedBands)
	return json.Marshal(struct {
		Kind   string `json:"kind"`
		Schema int    `json:"schema"`
		report
	}{"interleave-report", ReportSchema, report(r)})
}

// Explain reconstructs a trace's interleaving story: the per-iteration
// overlap timeline, the phase bands, and a verdict on whether — and why
// — the flows converged to MLTCP's interleaved schedule.
func Explain(tr *telemetry.Trace) (*Report, error) {
	res, err := backend.ResultFromTrace(tr.Manifest, tr.Events)
	if err != nil {
		return nil, fmt.Errorf("diagnose: %w", err)
	}
	rep := &Report{
		Scenario:      res.Scenario,
		Backend:       res.Backend,
		Policy:        res.Policy,
		InterleavedAt: res.InterleavedAt,
		OverlapScore:  res.OverlapScore,
		Converged:     res.InterleavedAt >= 0,
		Predicted:     tr.Manifest.Predicted,
	}
	if rep.Predicted {
		rep.Verdict = fmt.Sprintf(
			"predicted run (%s backend): the trace carries model predictions, not per-iteration events; no interleave timeline to explain",
			res.Backend)
		return rep, nil
	}

	flows := make([]int, len(tr.Manifest.Jobs))
	paths := make(map[int][]string, len(flows))
	for i, jm := range tr.Manifest.Jobs {
		flows[i] = jm.Flow
		if len(jm.Links) > 0 {
			paths[jm.Flow] = jm.Links
		} else {
			paths[jm.Flow] = []string{DefaultLink}
		}
	}

	rep.FinalQuarterOverlap = backend.OverlapScoreOf(res.Jobs, res.Duration*3/4, res.Duration)
	rep.Timeline = timeline(res, flows)
	rep.LockedBands = lockedBands(res, flows, paths)
	rep.Verdict = verdict(rep)
	return rep, nil
}

// timeline computes the per-iteration overlap and phase bands.
func timeline(res *backend.Result, flows []int) []IterPoint {
	maxIters := 0
	for _, j := range res.Jobs {
		if len(j.CommStarts) > maxIters {
			maxIters = len(j.CommStarts)
		}
	}
	var out []IterPoint
	for k := 0; k < maxIters; k++ {
		from, until := sim.Time(-1), sim.Time(-1)
		for _, j := range res.Jobs {
			s, e, ok := phaseWindow(j, k, res.Duration)
			if !ok {
				continue
			}
			if from < 0 || s < from {
				from = s
			}
			if e > until {
				until = e
			}
		}
		if from < 0 || until <= from {
			continue
		}
		p := IterPoint{
			Iter:    k,
			Overlap: backend.OverlapScoreOf(res.Jobs, from, until),
			Bands:   iterBands(res, flows, k),
		}
		out = append(out, p)
	}
	return out
}

// phaseWindow returns job j's iteration-k communication window; an
// unfinished final phase runs to the horizon.
func phaseWindow(j backend.JobResult, k int, horizon sim.Time) (sim.Time, sim.Time, bool) {
	if k >= len(j.CommStarts) {
		return 0, 0, false
	}
	s := j.CommStarts[k]
	e := horizon
	if k < len(j.CommEnds) {
		e = j.CommEnds[k]
	}
	return s, e, e > s
}

// iterBands groups flows whose iteration-k phases pairwise collide for
// more than bandThreshold of the shorter phase. Singletons are dropped.
func iterBands(res *backend.Result, flows []int, k int) [][]int {
	uf := newUnionFind(len(flows))
	for i := range flows {
		si, ei, oki := phaseWindow(res.Jobs[i], k, res.Duration)
		if !oki {
			continue
		}
		for j := i + 1; j < len(flows); j++ {
			sj, ej, okj := phaseWindow(res.Jobs[j], k, res.Duration)
			if !okj {
				continue
			}
			if pairOverlap(si, ei, sj, ej) > bandThreshold {
				uf.union(i, j)
			}
		}
	}
	return uf.groups(flows)
}

// pairOverlap is the intersection of two windows as a fraction of the
// shorter one.
func pairOverlap(s1, e1, s2, e2 sim.Time) float64 {
	lo, hi := s1, e1
	if s2 > lo {
		lo = s2
	}
	if e2 < hi {
		hi = e2
	}
	if hi <= lo {
		return 0
	}
	min := e1 - s1
	if d := e2 - s2; d < min {
		min = d
	}
	if min <= 0 {
		return 0
	}
	return (hi - lo).Seconds() / min.Seconds()
}

// lockedBands finds flow sets still phase-locked over the final quarter
// of the horizon: normalized pairwise overlap above bandThreshold,
// grouped transitively, singletons dropped. The backend's two-job
// overlap score saturates at 1/2 (all-collide = (n-1)/n), so the
// pairwise score is doubled to a [0, 1] collision fraction first.
func lockedBands(res *backend.Result, flows []int, paths map[int][]string) []FlowBand {
	from, until := res.Duration*3/4, res.Duration
	n := len(flows)
	uf := newUnionFind(n)
	pair := make(map[[2]int]float64)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ov := 2 * backend.OverlapScoreOf(
				[]backend.JobResult{res.Jobs[i], res.Jobs[j]}, from, until)
			pair[[2]int{i, j}] = ov
			if ov > bandThreshold {
				uf.union(i, j)
			}
		}
	}
	var bands []FlowBand
	for _, members := range uf.groupIndices() {
		band := FlowBand{Overlap: 1}
		for _, i := range members {
			band.Flows = append(band.Flows, flows[i])
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if ov := pair[[2]int{members[a], members[b]}]; ov < band.Overlap {
					band.Overlap = ov
				}
			}
		}
		band.Link = commonLink(band.Flows, paths)
		bands = append(bands, band)
	}
	return bands
}

// commonLink returns the first path link (in the first flow's path
// order) shared by every flow in the set, "" if none.
func commonLink(flowSet []int, paths map[int][]string) string {
	if len(flowSet) == 0 {
		return ""
	}
	for _, link := range paths[flowSet[0]] {
		shared := true
		for _, f := range flowSet[1:] {
			if !pathUses(paths[f], link) {
				shared = false
				break
			}
		}
		if shared {
			return link
		}
	}
	return ""
}

// verdict renders the one-line conclusion.
func verdict(r *Report) string {
	if r.Converged {
		return fmt.Sprintf(
			"interleaved at iter %d because from there every job's iteration times stay within %.0f%% of its ideal (overlap score %.2f over the second half)",
			r.InterleavedAt, 100*backend.InterleaveTol, r.OverlapScore)
	}
	if len(r.LockedBands) > 0 {
		var parts []string
		for _, b := range r.LockedBands {
			where := ""
			if b.Link != "" {
				where = " on link " + b.Link
			}
			parts = append(parts, fmt.Sprintf("flows %s locked in phase%s (pairwise overlap %.2f over the final quarter)",
				joinInts(b.Flows), where, b.Overlap))
		}
		return "failed: " + strings.Join(parts, "; ")
	}
	return fmt.Sprintf(
		"failed: no iteration from which all jobs stay within %.0f%% of ideal, but no flow pair stayed phase-locked either (final-quarter overlap %.2f) — likely still converging at the horizon",
		100*backend.InterleaveTol, r.FinalQuarterOverlap)
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// WriteText renders the report; the timeline is downsampled to at most
// maxRows rows (0 = 12). Output is byte-deterministic.
func (r *Report) WriteText(w io.Writer, maxRows int) error {
	if maxRows <= 0 {
		maxRows = 12
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario: %s (%s backend, policy %s)\n", r.Scenario, r.Backend, r.Policy)
	fmt.Fprintf(&sb, "verdict: %s\n", r.Verdict)
	if r.Predicted {
		_, err := io.WriteString(w, sb.String())
		return err
	}
	at := "never"
	if r.InterleavedAt >= 0 {
		at = "iter " + strconv.Itoa(r.InterleavedAt)
	}
	fmt.Fprintf(&sb, "interleaved-at: %s   overlap: %.3f (second half)   %.3f (final quarter)\n",
		at, r.OverlapScore, r.FinalQuarterOverlap)
	if len(r.Timeline) > 0 {
		sb.WriteString("timeline:\n")
		for _, p := range sampleTimeline(r.Timeline, maxRows) {
			fmt.Fprintf(&sb, "  iter %-4d overlap %.3f", p.Iter, p.Overlap)
			if len(p.Bands) > 0 {
				var bands []string
				for _, b := range p.Bands {
					bands = append(bands, "{"+joinInts(b)+"}")
				}
				fmt.Fprintf(&sb, "  bands %s", strings.Join(bands, " "))
			}
			sb.WriteByte('\n')
		}
	}
	for _, b := range r.LockedBands {
		where := b.Link
		if where == "" {
			where = "(no shared link)"
		}
		fmt.Fprintf(&sb, "locked band: flows %s on %s, pairwise overlap %.2f\n",
			joinInts(b.Flows), where, b.Overlap)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// sampleTimeline picks at most n evenly spaced points, always keeping
// the first and last.
func sampleTimeline(tl []IterPoint, n int) []IterPoint {
	if len(tl) <= n || n < 2 {
		return tl
	}
	out := make([]IterPoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, tl[i*(len(tl)-1)/(n-1)])
	}
	return out
}

// unionFind is a tiny deterministic disjoint-set over [0, n).
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if rb < ra { // smallest index roots, for deterministic grouping
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// groupIndices returns the non-singleton groups as sorted index slices,
// ordered by their smallest member.
func (u *unionFind) groupIndices() [][]int {
	byRoot := make(map[int][]int)
	for i := range u.parent {
		r := u.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r, members := range byRoot {
		if len(members) > 1 {
			roots = append(roots, r)
		}
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		sort.Ints(byRoot[r])
		out = append(out, byRoot[r])
	}
	return out
}

// groups maps groupIndices through a flow-ID table (empty, not nil,
// when every flow is a singleton).
func (u *unionFind) groups(flows []int) [][]int {
	idx := u.groupIndices()
	out := make([][]int, len(idx))
	for i, members := range idx {
		ids := make([]int, len(members))
		for j, m := range members {
			ids[j] = flows[m]
		}
		sort.Ints(ids)
		out[i] = ids
	}
	return out
}
