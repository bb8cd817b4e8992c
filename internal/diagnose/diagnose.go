// Package diagnose interprets telemetry traces: where internal/telemetry
// records what a run did, diagnose explains why two runs differ, which
// link constrained each flow, and whether — and why — the flows
// self-organized into MLTCP's interleaved bands.
//
// Three analyses share one indexed view of a telemetry.Trace:
//
//   - Compare aligns two traces by (kind, flow, iteration), reports the
//     first-divergence event with both sides' decoded fields and a
//     bounded context window, and classifies the divergence (seed drift,
//     schema change, timing, share allocation, ...). cmd/mltcp-diff and
//     the golden-trace test failures are built on it.
//   - Attribute reconstructs, per iteration and per flow, which link was
//     the binding constraint and what share each competing flow received
//     against its fair and aggressiveness-weighted shares, using the
//     fabric manifest fields for topology runs.
//   - Explain detects phase bands from the iteration and cwnd/agg
//     timelines and renders a convergence verdict ("interleaved at iter
//     k because ...", "failed: flows 2,5 locked in phase on link ...")
//     as both text and stable JSON, agreeing exactly with the producing
//     backend.Result's convergence diagnostics (it recomputes them
//     through backend.ResultFromTrace).
//
// Everything here is pure analysis over already-recorded traces: no
// telemetry is emitted, no simulation state is touched, and every output
// is a byte-deterministic function of its inputs (maps are only iterated
// through sorted key lists).
package diagnose

import (
	"fmt"
	"sort"
	"strconv"

	"mltcp/internal/telemetry"
)

// streamKey identifies one aligned event stream: all events of one kind
// from one flow over one link. Alignment by stream (rather than by raw
// file position) is what lets the differ say "flow 2's 17th cwnd sample
// diverged" instead of "byte 48213 differs".
type streamKey struct {
	kind telemetry.Kind
	flow int
	link string
}

// String renders the stream identity for reports.
func (k streamKey) String() string {
	s := k.kind.String()
	if k.flow != 0 {
		s += " flow=" + strconv.Itoa(k.flow)
	}
	if k.link != "" {
		s += " link=" + strconv.Quote(k.link)
	}
	return s
}

func keyLess(a, b streamKey) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.flow != b.flow {
		return a.flow < b.flow
	}
	return a.link < b.link
}

// indexedTrace is the shared analysis view of one trace: events in time
// order, each annotated with its flow's iteration at emission, grouped
// into per-(kind, flow, link) streams.
type indexedTrace struct {
	events []telemetry.Event
	// iter[i] is the iteration events[i]'s flow was in when it was
	// emitted (-1 before the flow's first iter_start, and for events
	// that carry no flow).
	iter []int
	// streams maps each stream to the ascending global indices of its
	// events; keys holds the stream keys sorted.
	streams map[streamKey][]int
	keys    []streamKey
}

// indexTrace builds the analysis view. Traces written by telemetry.Write
// are already time-sorted; a stable re-sort keeps hand-assembled event
// slices (tests, perturbed fixtures) on the same footing.
func indexTrace(tr *telemetry.Trace) *indexedTrace {
	ix := &indexedTrace{
		events:  make([]telemetry.Event, len(tr.Events)),
		iter:    make([]int, len(tr.Events)),
		streams: make(map[streamKey][]int),
	}
	copy(ix.events, tr.Events)
	sort.SliceStable(ix.events, func(i, j int) bool { return ix.events[i].At < ix.events[j].At })
	cur := map[int]int{} // flow -> current iteration
	for i, e := range ix.events {
		it := -1
		if e.Flow != 0 {
			if e.Kind == telemetry.KindIterStart {
				cur[e.Flow] = int(e.N)
			}
			if v, ok := cur[e.Flow]; ok {
				it = v
			}
		}
		ix.iter[i] = it
		k := streamKey{e.Kind, e.Flow, e.Link}
		ix.streams[k] = append(ix.streams[k], i)
	}
	ix.keys = make([]streamKey, 0, len(ix.streams))
	for k := range ix.streams {
		ix.keys = append(ix.keys, k)
	}
	sort.Slice(ix.keys, func(i, j int) bool { return keyLess(ix.keys[i], ix.keys[j]) })
	return ix
}

// encodeLine renders an event as its canonical trace line, falling back
// to a Go-syntax dump for events the schema cannot encode (which a
// decoded trace never contains).
func encodeLine(e telemetry.Event) string {
	line, err := telemetry.EncodeEvent(e)
	if err != nil {
		return fmt.Sprintf("%+v", e)
	}
	return line
}

// orEmpty returns xs, or an empty slice when xs is nil, so JSON
// documents spell empty lists [] rather than null.
func orEmpty[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs
}

// fmtFloat renders a float in its shortest exact form, matching the
// telemetry encoder's convention.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
