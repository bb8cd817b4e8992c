package diagnose

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// Class labels what kind of divergence the differ found. The values are
// the stable JSON encoding.
type Class string

const (
	// ClassIdentical: manifests, event streams, and metrics all equal.
	ClassIdentical Class = "identical"
	// ClassEquivalent: event streams and metrics equal; manifests differ
	// only in build metadata (the VCS revision). Two builds of the same
	// tree producing equivalent traces is the golden-gate contract.
	ClassEquivalent Class = "equivalent"
	// ClassSchema: the traces were written by different schema versions,
	// or one records event kinds the other's schema never emits.
	ClassSchema Class = "schema-change"
	// ClassSeedDrift: the runs were seeded differently — every downstream
	// event difference is explained by the manifest seeds.
	ClassSeedDrift Class = "seed-drift"
	// ClassTiming: the first divergent events carry the same payload but
	// happen at different times (or report different durations).
	ClassTiming Class = "timing"
	// ClassShare: a bandwidth/cwnd/aggressiveness/queue quantity diverged
	// — the runs allocated link capacity differently.
	ClassShare Class = "share-allocation"
	// ClassStructure: the traces disagree about what happened at all — a
	// stream is truncated or an event's identity fields differ.
	ClassStructure Class = "structure"
	// ClassMetadata: identical behaviour, but manifests disagree beyond
	// the revision (scenario name, capacity, topology, ...).
	ClassMetadata Class = "metadata"
)

// DiffSchema versions the diff report's JSON encoding.
const DiffSchema = 1

// DefaultContext is the default number of surrounding events shown on
// each side of the first divergence.
const DefaultContext = 3

// Options tunes Compare.
type Options struct {
	// Context is the number of events shown before and after the
	// divergence on each side (0 = DefaultContext).
	Context int
}

// Side is one trace's view of the first divergence.
type Side struct {
	// Event is the divergent event (nil when this side's stream ended
	// before the other's).
	Event *telemetry.Event
	// Index is the event's position in this trace's time-sorted event
	// list (-1 when absent).
	Index int
	// Iter is the flow's iteration at the event (-1 when unknown).
	Iter int
	// Line is the event's canonical trace line ("" when absent).
	Line string
	// Context holds decoded lines around the divergence, each prefixed
	// with its global index; the divergent line is prefixed with ">".
	Context []string
}

// Diff is the outcome of comparing two traces.
type Diff struct {
	Class  Class
	Reason string
	// Stream identifies the diverged (kind, flow, link) stream and
	// StreamIndex the diverged element within it (-1 when the traces
	// diverge without an event-level witness).
	Stream      string
	StreamIndex int
	A, B        Side
	// FieldDiffs lists the decoded payload fields that differ, rendered
	// "name: a vs b" ("t" is the event time).
	FieldDiffs []string
	// ManifestDiffs and MetricsDiffs list header/footer-level
	// disagreements, rendered "field: a vs b".
	ManifestDiffs []string
	MetricsDiffs  []string
	// EventsA and EventsB count each side's events.
	EventsA, EventsB int
}

// Identical reports byte-level agreement of everything compared.
func (d *Diff) Identical() bool { return d.Class == ClassIdentical }

// Equivalent reports behavioural agreement: identical events and
// metrics, manifests differing only in build metadata.
func (d *Diff) Equivalent() bool { return d.Class == ClassEquivalent }

// Divergent reports any disagreement beyond build metadata.
func (d *Diff) Divergent() bool { return !d.Identical() && !d.Equivalent() }

// Compare aligns two decoded traces and locates their first divergence.
// The result is a pure function of the inputs: equal traces in either
// order yield mirrored, deterministic reports.
func Compare(a, b *telemetry.Trace, opt Options) *Diff {
	ctxN := opt.Context
	if ctxN <= 0 {
		ctxN = DefaultContext
	}
	d := &Diff{
		StreamIndex: -1,
		A:           Side{Index: -1, Iter: -1},
		B:           Side{Index: -1, Iter: -1},
		EventsA:     len(a.Events),
		EventsB:     len(b.Events),
	}
	mdiffs, revisionOnly, seedDiffer, schemaDiffer := manifestDiffs(a.Manifest, b.Manifest)
	d.ManifestDiffs = mdiffs
	d.MetricsDiffs = metricsDiffs(a.Metrics, b.Metrics)

	ia, ib := indexTrace(a), indexTrace(b)
	key, pos, found := firstDivergence(ia, ib)
	if !found {
		switch {
		case schemaDiffer:
			d.Class = ClassSchema
			d.Reason = "identical events, but the manifests carry different schema versions"
		case len(d.MetricsDiffs) > 0:
			d.Class = ClassStructure
			d.Reason = fmt.Sprintf("metrics diverge over identical event streams (%s)", d.MetricsDiffs[0])
		case seedDiffer:
			d.Class = ClassSeedDrift
			d.Reason = "identical events despite different manifest seeds (seed not reaching the run)"
		case len(d.ManifestDiffs) == 0:
			d.Class = ClassIdentical
			d.Reason = "traces are identical"
		case revisionOnly:
			d.Class = ClassEquivalent
			d.Reason = "traces are equivalent: identical behaviour, manifests differ only in the build revision"
		default:
			d.Class = ClassMetadata
			d.Reason = fmt.Sprintf("identical behaviour, but manifests disagree (%s)", d.ManifestDiffs[0])
		}
		return d
	}

	d.Stream = key.String()
	d.StreamIndex = pos
	sa, sb := ia.streams[key], ib.streams[key]
	if pos < len(sa) {
		gi := sa[pos]
		e := ia.events[gi]
		d.A = Side{Event: &e, Index: gi, Iter: ia.iter[gi], Line: encodeLine(e)}
	}
	if pos < len(sb) {
		gi := sb[pos]
		e := ib.events[gi]
		d.B = Side{Event: &e, Index: gi, Iter: ib.iter[gi], Line: encodeLine(e)}
	}
	d.A.Context = contextLines(ia, d.A.Index, ctxN)
	d.B.Context = contextLines(ib, d.B.Index, ctxN)
	d.FieldDiffs = fieldDiffs(d.A.Event, d.B.Event)
	d.Class, d.Reason = classify(d, key, seedDiffer, schemaDiffer)
	return d
}

// firstDivergence scans every aligned stream and returns the diverged
// stream and element of the earliest-in-time mismatch. Streams are
// scanned in sorted key order, so ties resolve deterministically.
func firstDivergence(ia, ib *indexedTrace) (streamKey, int, bool) {
	keys := make([]streamKey, 0, len(ia.keys)+len(ib.keys))
	keys = append(keys, ia.keys...)
	for _, k := range ib.keys {
		if _, ok := ia.streams[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	var (
		bestKey  streamKey
		bestPos  int
		bestAt   sim.Time
		haveBest bool
	)
	for _, k := range keys {
		sa, sb := ia.streams[k], ib.streams[k]
		n := len(sa)
		if len(sb) < n {
			n = len(sb)
		}
		pos := -1
		for i := 0; i < n; i++ {
			if ia.events[sa[i]] != ib.events[sb[i]] {
				pos = i
				break
			}
		}
		if pos == -1 {
			if len(sa) == len(sb) {
				continue
			}
			pos = n
		}
		var at sim.Time
		switch {
		case pos < len(sa) && pos < len(sb):
			at = ia.events[sa[pos]].At
			if t := ib.events[sb[pos]].At; t < at {
				at = t
			}
		case pos < len(sa):
			at = ia.events[sa[pos]].At
		default:
			at = ib.events[sb[pos]].At
		}
		if !haveBest || at < bestAt {
			bestKey, bestPos, bestAt, haveBest = k, pos, at, true
		}
	}
	return bestKey, bestPos, haveBest
}

// contextLines renders the events around global index gi (the last ctxN
// events when gi is -1, i.e. this side's stream ended early).
func contextLines(ix *indexedTrace, gi, ctxN int) []string {
	lo, hi := gi-ctxN, gi+ctxN
	if gi < 0 {
		lo, hi = len(ix.events)-ctxN, len(ix.events)-1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(ix.events)-1 {
		hi = len(ix.events) - 1
	}
	var out []string
	for i := lo; i <= hi; i++ {
		marker := "  "
		if i == gi {
			marker = "> "
		}
		out = append(out, fmt.Sprintf("%s#%d %s", marker, i, encodeLine(ix.events[i])))
	}
	return out
}

// fieldDiffs lists the decoded fields on which two same-stream events
// disagree ("t" covers the event time).
func fieldDiffs(a, b *telemetry.Event) []string {
	if a == nil || b == nil {
		return nil
	}
	var out []string
	if a.At != b.At {
		out = append(out, fmt.Sprintf("t: %d vs %d", int64(a.At), int64(b.At)))
	}
	fa, fb := a.Fields(), b.Fields()
	for i := range fa {
		if i < len(fb) && fa[i].Value != fb[i].Value {
			out = append(out, fmt.Sprintf("%s: %s vs %s", fa[i].Name, fa[i].Value, fb[i].Value))
		}
	}
	return out
}

// payloadEqual reports whether two events agree on everything but time.
func payloadEqual(a, b *telemetry.Event) bool {
	//lint:allow simunits the differ's contract is bit-exact trace equality; a last-ulp drift IS a divergence
	return a.N == b.N && a.M == b.M && a.V0 == b.V0 && a.V1 == b.V1
}

// classify names the divergence. Precedence: schema mismatches trump
// everything (the traces speak different languages); seed drift trumps
// event-level detail (the manifest already explains it); then the
// diverged event pair decides between timing, share allocation, and
// structure.
func classify(d *Diff, key streamKey, seedDiffer, schemaDiffer bool) (Class, string) {
	if schemaDiffer {
		return ClassSchema, "the traces were written by different schema versions"
	}
	a, b := d.A.Event, d.B.Event
	if a == nil || b == nil {
		short, long := "A", "B"
		n := d.StreamIndex
		if b == nil {
			short, long = "B", "A"
		}
		reason := fmt.Sprintf("stream %s ends after %d events in %s but continues in %s",
			key, n, short, long)
		if seedDiffer {
			return ClassSeedDrift, reason + " (manifest seeds differ)"
		}
		return ClassStructure, reason
	}
	if seedDiffer {
		return ClassSeedDrift, fmt.Sprintf(
			"manifest seeds differ; first downstream divergence is %s element %d", key, d.StreamIndex)
	}
	if payloadEqual(a, b) {
		return ClassTiming, fmt.Sprintf(
			"%s element %d carries the same payload at different times (%v vs %v)",
			key, d.StreamIndex, a.At, b.At)
	}
	switch key.kind {
	case telemetry.KindCwnd, telemetry.KindAgg, telemetry.KindBandwidth,
		telemetry.KindQueue, telemetry.KindDrop, telemetry.KindECNMark,
		telemetry.KindFastRecovery:
		return ClassShare, fmt.Sprintf(
			"%s element %d allocates shares differently (%s)",
			key, d.StreamIndex, strings.Join(d.FieldDiffs, "; "))
	case telemetry.KindIterEnd:
		if a.N == b.N {
			return ClassTiming, fmt.Sprintf(
				"iteration %d of flow %d completed with a different duration (%s)",
				a.N, key.flow, strings.Join(d.FieldDiffs, "; "))
		}
	case telemetry.KindIterStart:
		if a.N == b.N {
			return ClassTiming, fmt.Sprintf(
				"iteration %d of flow %d starts at a different time", a.N, key.flow)
		}
	case telemetry.KindRTO:
		//lint:allow simunits classifying bit-exact recorded values, not computed scores
		if a.V0 == b.V0 {
			return ClassTiming, fmt.Sprintf(
				"%s element %d backed off differently (%s)",
				key, d.StreamIndex, strings.Join(d.FieldDiffs, "; "))
		}
		return ClassShare, fmt.Sprintf(
			"%s element %d reacted to a timeout with a different window (%s)",
			key, d.StreamIndex, strings.Join(d.FieldDiffs, "; "))
	}
	return ClassStructure, fmt.Sprintf(
		"%s element %d diverges (%s)", key, d.StreamIndex, strings.Join(d.FieldDiffs, "; "))
}

// WriteText renders the full report; labelA/labelB name the sides (file
// paths in cmd/mltcp-diff). Output is byte-deterministic.
func (d *Diff) WriteText(w io.Writer, labelA, labelB string) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "class: %s\n", d.Class)
	fmt.Fprintf(&sb, "reason: %s\n", d.Reason)
	fmt.Fprintf(&sb, "A: %s (%d events)\n", labelA, d.EventsA)
	fmt.Fprintf(&sb, "B: %s (%d events)\n", labelB, d.EventsB)
	if len(d.ManifestDiffs) > 0 {
		sb.WriteString("manifest:\n")
		for _, m := range d.ManifestDiffs {
			fmt.Fprintf(&sb, "  %s\n", m)
		}
	}
	if len(d.MetricsDiffs) > 0 {
		sb.WriteString("metrics:\n")
		for _, m := range d.MetricsDiffs {
			fmt.Fprintf(&sb, "  %s\n", m)
		}
	}
	if d.StreamIndex >= 0 {
		fmt.Fprintf(&sb, "first divergence: stream %s, element %d", d.Stream, d.StreamIndex)
		if it := d.divergenceIter(); it >= 0 {
			fmt.Fprintf(&sb, ", iteration %d", it)
		}
		sb.WriteByte('\n')
		writeSide := func(label string, s Side) {
			if s.Event == nil {
				fmt.Fprintf(&sb, "  %s: <stream ended>\n", label)
				return
			}
			fmt.Fprintf(&sb, "  %s #%d: %s\n", label, s.Index, s.Line)
		}
		writeSide("A", d.A)
		writeSide("B", d.B)
		if len(d.FieldDiffs) > 0 {
			fmt.Fprintf(&sb, "  fields: %s\n", strings.Join(d.FieldDiffs, "; "))
		}
		for _, side := range []struct {
			label string
			s     Side
		}{{"A", d.A}, {"B", d.B}} {
			if len(side.s.Context) == 0 {
				continue
			}
			fmt.Fprintf(&sb, "context %s:\n", side.label)
			for _, line := range side.s.Context {
				fmt.Fprintf(&sb, "  %s\n", line)
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// divergenceIter returns the iteration the divergence fell in (-1 when
// neither side knows).
func (d *Diff) divergenceIter() int {
	if d.A.Iter >= 0 {
		return d.A.Iter
	}
	return d.B.Iter
}

// MarshalJSON encodes the diff under its kind/schema header, with empty
// lists as []. Each side's event is embedded as its canonical trace line
// (null when that side's stream ended first).
func (d Diff) MarshalJSON() ([]byte, error) {
	type side struct {
		Index int             `json:"index"`
		Iter  int             `json:"iter"`
		Event json.RawMessage `json:"event"`
	}
	type divergence struct {
		Stream    string   `json:"stream"`
		Element   int      `json:"element"`
		Iteration int      `json:"iteration"`
		A         *side    `json:"a"`
		B         *side    `json:"b"`
		Fields    []string `json:"fields"`
		ContextA  []string `json:"context_a"`
		ContextB  []string `json:"context_b"`
	}
	doc := struct {
		Kind          string      `json:"kind"`
		Schema        int         `json:"schema"`
		Class         Class       `json:"class"`
		Reason        string      `json:"reason"`
		EventsA       int         `json:"events_a"`
		EventsB       int         `json:"events_b"`
		ManifestDiffs []string    `json:"manifest_diffs"`
		MetricsDiffs  []string    `json:"metrics_diffs"`
		Divergence    *divergence `json:"divergence,omitempty"`
	}{"trace-diff", DiffSchema, d.Class, d.Reason, d.EventsA, d.EventsB,
		orEmpty(d.ManifestDiffs), orEmpty(d.MetricsDiffs), nil}
	if d.StreamIndex >= 0 {
		sideDoc := func(s Side) *side {
			if s.Event == nil {
				return nil
			}
			return &side{s.Index, s.Iter, json.RawMessage(s.Line)}
		}
		doc.Divergence = &divergence{d.Stream, d.StreamIndex, d.divergenceIter(),
			sideDoc(d.A), sideDoc(d.B),
			orEmpty(d.FieldDiffs), orEmpty(d.A.Context), orEmpty(d.B.Context)}
	}
	return json.Marshal(doc)
}

// manifestDiffs compares two manifests field by field. revisionOnly
// reports that the only disagreements are build revisions; seedDiffer
// and schemaDiffer surface the fields classification keys on.
func manifestDiffs(a, b *telemetry.Manifest) (diffs []string, revisionOnly, seedDiffer, schemaDiffer bool) {
	switch {
	case a == nil && b == nil:
		return nil, false, false, false
	case a == nil || b == nil:
		pa, pb := "present", "present"
		if a == nil {
			pa = "absent"
		}
		if b == nil {
			pb = "absent"
		}
		return []string{fmt.Sprintf("manifest: %s vs %s", pa, pb)}, false, false, false
	}
	add := func(name, va, vb string) {
		if va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", name, va, vb))
		}
	}
	add("schema", strconv.Itoa(a.Schema), strconv.Itoa(b.Schema))
	schemaDiffer = a.Schema != b.Schema
	add("scenario", a.Scenario, b.Scenario)
	add("backend", a.Backend, b.Backend)
	add("policy", a.Policy, b.Policy)
	add("seed", strconv.FormatUint(a.Seed, 10), strconv.FormatUint(b.Seed, 10))
	seedDiffer = a.Seed != b.Seed
	add("capacity_gbps", fmtFloat(a.CapacityGbps), fmtFloat(b.CapacityGbps))
	add("scale", fmtFloat(a.Scale), fmtFloat(b.Scale))
	add("duration_ns", strconv.FormatInt(a.DurationNS, 10), strconv.FormatInt(b.DurationNS, 10))
	add("revision", a.Revision, b.Revision)
	add("topology", a.Topology, b.Topology)
	add("racks", strconv.Itoa(a.Racks), strconv.Itoa(b.Racks))
	add("fabric_links", strconv.Itoa(a.FabricLinks), strconv.Itoa(b.FabricLinks))
	add("predicted", strconv.FormatBool(a.Predicted), strconv.FormatBool(b.Predicted))
	add("jobs", strconv.Itoa(len(a.Jobs)), strconv.Itoa(len(b.Jobs)))
	for i := 0; i < len(a.Jobs) && i < len(b.Jobs); i++ {
		ja, jb := a.Jobs[i], b.Jobs[i]
		pre := fmt.Sprintf("jobs[%d].", i)
		add(pre+"flow", strconv.Itoa(ja.Flow), strconv.Itoa(jb.Flow))
		add(pre+"name", ja.Name, jb.Name)
		add(pre+"profile", ja.Profile, jb.Profile)
		add(pre+"ideal_ns", strconv.FormatInt(ja.IdealNS, 10), strconv.FormatInt(jb.IdealNS, 10))
		add(pre+"bytes_per_iter", strconv.FormatInt(ja.BytesPerIter, 10), strconv.FormatInt(jb.BytesPerIter, 10))
		add(pre+"src_rack", ja.SrcRack, jb.SrcRack)
		add(pre+"dst_rack", ja.DstRack, jb.DstRack)
		add(pre+"links", strings.Join(ja.Links, ","), strings.Join(jb.Links, ","))
	}
	revisionOnly = len(diffs) > 0
	for _, d := range diffs {
		if !strings.HasPrefix(d, "revision: ") {
			revisionOnly = false
			break
		}
	}
	return diffs, revisionOnly, seedDiffer, schemaDiffer
}

// metricsDiffs compares two metrics snapshots, union-keyed and sorted.
func metricsDiffs(a, b *telemetry.Snapshot) []string {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil || b == nil:
		pa, pb := "present", "present"
		if a == nil {
			pa = "absent"
		}
		if b == nil {
			pb = "absent"
		}
		return []string{fmt.Sprintf("metrics line: %s vs %s", pa, pb)}
	}
	var diffs []string
	for _, name := range unionKeys(countersKeys(a.Counters), countersKeys(b.Counters)) {
		va, oka := a.Counters[name]
		vb, okb := b.Counters[name]
		if va != vb || oka != okb {
			diffs = append(diffs, fmt.Sprintf("counter %s: %s vs %s",
				name, presentInt(va, oka), presentInt(vb, okb)))
		}
	}
	for _, name := range unionKeys(gaugeKeys(a.Gauges), gaugeKeys(b.Gauges)) {
		va, oka := a.Gauges[name]
		vb, okb := b.Gauges[name]
		//lint:allow simunits diffing recorded snapshot values bit-exactly is the point
		if va != vb || oka != okb {
			diffs = append(diffs, fmt.Sprintf("gauge %s: %s vs %s",
				name, presentFloat(va, oka), presentFloat(vb, okb)))
		}
	}
	for _, name := range unionKeys(histKeys(a.Histograms), histKeys(b.Histograms)) {
		ha, oka := a.Histograms[name]
		hb, okb := b.Histograms[name]
		if oka != okb {
			diffs = append(diffs, fmt.Sprintf("histogram %s: %s vs %s",
				name, presentInt(ha.Count, oka), presentInt(hb.Count, okb)))
			continue
		}
		//lint:allow simunits diffing recorded snapshot values bit-exactly is the point
		if ha.Count != hb.Count || ha.Sum != hb.Sum {
			diffs = append(diffs, fmt.Sprintf("histogram %s: count %d sum %s vs count %d sum %s",
				name, ha.Count, fmtFloat(ha.Sum), hb.Count, fmtFloat(hb.Sum)))
		}
	}
	return diffs
}

func presentInt(v int64, ok bool) string {
	if !ok {
		return "absent"
	}
	return strconv.FormatInt(v, 10)
}

func presentFloat(v float64, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmtFloat(v)
}

func countersKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func gaugeKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func histKeys(m map[string]telemetry.HistSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// unionKeys merges and sorts two key sets.
func unionKeys(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, k := range a {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for _, k := range b {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
