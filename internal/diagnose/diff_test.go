package diagnose

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"mltcp/internal/telemetry"
)

// cloneTrace deep-copies a trace so tests can perturb one side.
func cloneTrace(tr *telemetry.Trace) *telemetry.Trace {
	out := &telemetry.Trace{}
	if tr.Manifest != nil {
		m := *tr.Manifest
		m.Jobs = append([]telemetry.ManifestJob(nil), tr.Manifest.Jobs...)
		out.Manifest = &m
	}
	out.Events = append([]telemetry.Event(nil), tr.Events...)
	if tr.Metrics != nil {
		s := &telemetry.Snapshot{}
		if tr.Metrics.Counters != nil {
			s.Counters = make(map[string]int64, len(tr.Metrics.Counters))
			for k, v := range tr.Metrics.Counters {
				s.Counters[k] = v
			}
		}
		if tr.Metrics.Gauges != nil {
			s.Gauges = make(map[string]float64, len(tr.Metrics.Gauges))
			for k, v := range tr.Metrics.Gauges {
				s.Gauges[k] = v
			}
		}
		if tr.Metrics.Histograms != nil {
			s.Histograms = make(map[string]telemetry.HistSnapshot, len(tr.Metrics.Histograms))
			for k, v := range tr.Metrics.Histograms {
				s.Histograms[k] = v
			}
		}
		out.Metrics = s
	}
	return out
}

func TestCompareIdenticalSameSeed(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), backendName(t), 1)
	b, _ := runTraced(t, twoJobScenario(), backendName(t), 1)
	d := Compare(a, b, Options{})
	if !d.Identical() {
		t.Fatalf("same-seed traces not identical: class=%s reason=%s", d.Class, d.Reason)
	}
	if d.Divergent() {
		t.Fatal("identical diff reported divergent")
	}
	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"manifest_diffs":[],"metrics_diffs":[]`)) ||
		bytes.Contains(js, []byte(`"divergence"`)) {
		t.Errorf("identical diff JSON = %s", js)
	}
}

func backendName(t *testing.T) string {
	t.Helper()
	return "fluid"
}

// TestCompareByteDeterministic: both renderings of the same diff are
// byte-identical across repeated runs.
func TestCompareByteDeterministic(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b, _ := runTraced(t, twoJobScenario(), "fluid", 2)
	render := func() (string, string) {
		d := Compare(a, b, Options{})
		var txt bytes.Buffer
		if err := d.WriteText(&txt, "a.jsonl", "b.jsonl"); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return txt.String(), string(js)
	}
	txt1, js1 := render()
	txt2, js2 := render()
	if txt1 != txt2 {
		t.Error("text report not byte-deterministic")
	}
	if js1 != js2 {
		t.Error("JSON report not byte-deterministic")
	}
	if !strings.HasPrefix(js1, `{"kind":"trace-diff","schema":1,`) {
		t.Errorf("JSON header = %.60s", js1)
	}
}

func TestCompareSeedDrift(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b, _ := runTraced(t, twoJobScenario(), "fluid", 2)
	d := Compare(a, b, Options{})
	if !d.Divergent() {
		t.Fatal("distinct seeds compared equal")
	}
	if d.Class != ClassSeedDrift {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassSeedDrift, d.Reason)
	}
	if !strings.Contains(strings.Join(d.ManifestDiffs, "\n"), "seed: 1 vs 2") {
		t.Errorf("manifest diffs missing seed line: %v", d.ManifestDiffs)
	}
}

// TestComparePerturbedEvent: flipping one event's payload mid-trace must
// pinpoint exactly that event, with its decoded field diff and context.
func TestComparePerturbedEvent(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	target := -1
	for i, e := range b.Events {
		if e.Kind == telemetry.KindIterEnd && e.N >= 3 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no iter_end event with N>=3 in fixture trace")
	}
	b.Events[target].M += 12345

	d := Compare(a, b, Options{Context: 2})
	if !d.Divergent() {
		t.Fatal("perturbed trace compared equal")
	}
	if d.A.Event == nil || d.B.Event == nil {
		t.Fatal("divergence sides not populated")
	}
	if d.B.Index != target {
		t.Errorf("divergence at index %d, perturbed %d", d.B.Index, target)
	}
	if *d.A.Event != a.Events[target] || *d.B.Event != b.Events[target] {
		t.Error("reported events are not the perturbed pair")
	}
	joined := strings.Join(d.FieldDiffs, "\n")
	if !strings.Contains(joined, "comm_ns:") {
		t.Errorf("field diffs missing comm_ns: %v", d.FieldDiffs)
	}
	// Context windows: 2 before + divergent + 2 after, divergent marked.
	if len(d.A.Context) != 5 {
		t.Errorf("context window = %d lines, want 5", len(d.A.Context))
	}
	marked := false
	for _, line := range d.A.Context {
		if strings.HasPrefix(line, "> ") {
			marked = true
		}
	}
	if !marked {
		t.Error("no context line marked as the divergence")
	}
	if d.Class != ClassTiming {
		t.Errorf("iter_end duration change classified %s, want %s", d.Class, ClassTiming)
	}
}

func TestCompareTimingShift(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	// Shift one event by 1ns without landing on another event's slot.
	for i := range b.Events {
		if b.Events[i].Kind == telemetry.KindIterStart && b.Events[i].N == 2 {
			b.Events[i].At++
			break
		}
	}
	d := Compare(a, b, Options{})
	if d.Class != ClassTiming {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassTiming, d.Reason)
	}
}

func TestCompareShareAllocation(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	perturbed := false
	for i := range b.Events {
		k := b.Events[i].Kind
		if k == telemetry.KindBandwidth || k == telemetry.KindAgg || k == telemetry.KindCwnd {
			b.Events[i].V0 = b.Events[i].V0*1.5 + 1
			perturbed = true
			break
		}
	}
	if !perturbed {
		t.Skip("fixture trace has no share-carrying events")
	}
	d := Compare(a, b, Options{})
	if d.Class != ClassShare {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassShare, d.Reason)
	}
}

func TestCompareTruncatedStream(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	b.Events = b.Events[:len(b.Events)-1]
	d := Compare(a, b, Options{})
	if !d.Divergent() {
		t.Fatal("truncated trace compared equal")
	}
	if d.Class != ClassStructure {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassStructure, d.Reason)
	}
	if d.B.Event != nil {
		t.Error("truncated side reported an event")
	}
	if d.A.Event == nil {
		t.Error("surviving side's extra event not reported")
	}
	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Divergence struct {
			A, B json.RawMessage
		}
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	if string(doc.Divergence.B) != "null" || !bytes.HasPrefix(doc.Divergence.A, []byte(`{"index":`)) {
		t.Errorf("divergence sides a=%s b=%s, want the ended side null", doc.Divergence.A, doc.Divergence.B)
	}
}

func TestCompareSchemaChange(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	b.Manifest.Schema = 2
	d := Compare(a, b, Options{})
	if d.Class != ClassSchema {
		t.Errorf("class = %s, want %s", d.Class, ClassSchema)
	}
}

// TestCompareRevisionOnly pins the golden-gate contract: two builds of
// the same tree differ only in the manifest revision and must compare
// equivalent, not divergent.
func TestCompareRevisionOnly(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	b.Manifest.Revision = "deadbeef"
	if a.Manifest.Revision == b.Manifest.Revision {
		b.Manifest.Revision = "cafef00d"
	}
	d := Compare(a, b, Options{})
	if !d.Equivalent() {
		t.Fatalf("revision-only difference: class=%s, want %s", d.Class, ClassEquivalent)
	}
	if d.Divergent() {
		t.Error("equivalent diff reported divergent")
	}
}

func TestCompareMetadata(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	b.Manifest.Scenario = "renamed"
	d := Compare(a, b, Options{})
	if d.Class != ClassMetadata {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassMetadata, d.Reason)
	}
}

func TestCompareMetricsOnly(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	if b.Metrics == nil || len(b.Metrics.Counters) == 0 {
		t.Skip("fixture trace has no counters")
	}
	keys := countersKeys(b.Metrics.Counters)
	sort.Strings(keys)
	b.Metrics.Counters[keys[0]]++
	d := Compare(a, b, Options{})
	if d.Class != ClassStructure {
		t.Errorf("class = %s, want %s (reason: %s)", d.Class, ClassStructure, d.Reason)
	}
	if len(d.MetricsDiffs) == 0 {
		t.Error("metrics diffs empty")
	}
}

// TestCompareEarliestDivergenceWins: with two perturbations, the report
// must point at the earlier one.
func TestCompareEarliestDivergenceWins(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	var early, late int
	picked := 0
	for i := range b.Events {
		if b.Events[i].Kind != telemetry.KindIterEnd {
			continue
		}
		if picked == 1 {
			early = i
			b.Events[i].M += 7
			picked++
		} else if picked == 2 && i > early {
			late = i
			b.Events[i].M += 7
			picked++
			break
		} else if picked == 0 {
			picked = 1 // skip the very first iter_end
		}
	}
	if picked != 3 {
		t.Skip("fixture trace too short for a double perturbation")
	}
	d := Compare(a, b, Options{})
	if d.B.Index != early {
		t.Errorf("divergence at %d, want earliest perturbation %d (late %d)", d.B.Index, early, late)
	}
}

func TestCompareSymmetry(t *testing.T) {
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	b.Events = b.Events[:len(b.Events)-1]
	ab := Compare(a, b, Options{})
	ba := Compare(b, a, Options{})
	if ab.Class != ba.Class {
		t.Errorf("class asymmetric: %s vs %s", ab.Class, ba.Class)
	}
	if ab.A.Index != ba.B.Index || ab.B.Index != ba.A.Index {
		t.Errorf("sides not mirrored: ab=(%d,%d) ba=(%d,%d)",
			ab.A.Index, ab.B.Index, ba.A.Index, ba.B.Index)
	}
}

func TestCompareNilManifests(t *testing.T) {
	// Hotpath golden traces are written without manifests; the differ
	// must handle both-nil and one-nil.
	a, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	b := cloneTrace(a)
	a2, b2 := cloneTrace(a), cloneTrace(b)
	a2.Manifest, b2.Manifest = nil, nil
	if d := Compare(a2, b2, Options{}); !d.Identical() {
		t.Errorf("both-nil manifests: class = %s", d.Class)
	}
	b2.Manifest = b.Manifest
	if d := Compare(a2, b2, Options{}); d.Class != ClassMetadata {
		t.Errorf("one-nil manifest: class = %s, want %s", d.Class, ClassMetadata)
	}
}
