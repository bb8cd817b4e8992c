package diagnose

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestExplainAgreesWithResult is the tentpole acceptance gate: on every
// checked-in scenario, the explainer's convergence diagnostics must
// equal the producing backend.Result's, exactly.
func TestExplainAgreesWithResult(t *testing.T) {
	files := []string{
		"fourjobs.json", "hetero.json", "noisy-six.json",
		"cluster-fattree.json", "learned-demo.json",
	}
	for _, file := range files {
		t.Run(strings.TrimSuffix(file, ".json"), func(t *testing.T) {
			tr, res := runTraced(t, loadScenario(t, file), "fluid", 1)
			rep, err := Explain(tr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.InterleavedAt != res.InterleavedAt {
				t.Errorf("InterleavedAt = %d, Result says %d", rep.InterleavedAt, res.InterleavedAt)
			}
			if rep.OverlapScore != res.OverlapScore {
				t.Errorf("OverlapScore = %v, Result says %v", rep.OverlapScore, res.OverlapScore)
			}
			if rep.Converged != (res.InterleavedAt >= 0) {
				t.Errorf("Converged = %v with InterleavedAt %d", rep.Converged, res.InterleavedAt)
			}
			if rep.Converged && !strings.Contains(rep.Verdict, "interleaved at iter") {
				t.Errorf("converged verdict = %q", rep.Verdict)
			}
			if !rep.Converged && !strings.HasPrefix(rep.Verdict, "failed:") {
				t.Errorf("non-converged verdict = %q", rep.Verdict)
			}
		})
	}
}

// TestExplainLockedPair: the hand-built never-converging fixture must
// yield InterleavedAt -1 and name both flows as a locked band.
func TestExplainLockedPair(t *testing.T) {
	rep, err := Explain(lockedTrace())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged || rep.InterleavedAt != -1 {
		t.Fatalf("locked fixture converged: InterleavedAt=%d", rep.InterleavedAt)
	}
	if len(rep.LockedBands) != 1 {
		t.Fatalf("locked bands = %v, want one band", rep.LockedBands)
	}
	band := rep.LockedBands[0]
	if len(band.Flows) != 2 || band.Flows[0] != 1 || band.Flows[1] != 2 {
		t.Errorf("band flows = %v, want [1 2]", band.Flows)
	}
	if band.Link != DefaultLink {
		t.Errorf("band link = %q, want %q", band.Link, DefaultLink)
	}
	if band.Overlap <= bandThreshold {
		t.Errorf("band overlap = %v, want > %v", band.Overlap, bandThreshold)
	}
	if !strings.Contains(rep.Verdict, "failed: flows 1,2 locked in phase on link "+DefaultLink) {
		t.Errorf("verdict = %q", rep.Verdict)
	}
	// Timeline: every iteration has the two flows banded together.
	if len(rep.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	for _, p := range rep.Timeline {
		if len(p.Bands) != 1 || len(p.Bands[0]) != 2 {
			t.Errorf("iter %d bands = %v, want [[1 2]]", p.Iter, p.Bands)
		}
	}
}

func TestExplainPredicted(t *testing.T) {
	tr := lockedTrace()
	tr.Manifest.Predicted = true
	tr.Events = nil
	rep, err := Explain(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Predicted {
		t.Fatal("Predicted not set")
	}
	if !strings.Contains(rep.Verdict, "predicted run") {
		t.Errorf("verdict = %q", rep.Verdict)
	}
	if len(rep.Timeline) != 0 {
		t.Errorf("predicted report has a timeline (%d points)", len(rep.Timeline))
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"timeline":[]`, `"locked_bands":[]`} {
		if !bytes.Contains(js, []byte(key)) {
			t.Errorf("predicted report lacks %s: %s", key, js)
		}
	}
}

// TestExplainByteDeterministic: text and JSON renderings are identical
// across repeated analyses of the same trace, and empty lists encode as
// [] (the report has no nullable field).
func TestExplainByteDeterministic(t *testing.T) {
	tr, _ := runTraced(t, twoJobScenario(), "fluid", 1)
	render := func() (string, string) {
		rep, err := Explain(tr)
		if err != nil {
			t.Fatal(err)
		}
		var txt bytes.Buffer
		if err := rep.WriteText(&txt, 0); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(rep)
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
	if !strings.HasPrefix(js1, `{"kind":"interleave-report","schema":1,`) {
		t.Errorf("JSON header = %.60s", js1)
	}
	// The run interleaves, so some iteration has no colliding flows.
	if !strings.Contains(js1, `"bands":[]`) || strings.Contains(js1, "null") {
		t.Errorf("want an iteration with \"bands\":[] and no null: %s", js1)
	}
}

// TestExplainNeverConvergedText: the text report spells out a "never"
// interleaved-at rather than printing -1.
func TestExplainNeverConvergedText(t *testing.T) {
	rep, err := Explain(lockedTrace())
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := rep.WriteText(&txt, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "interleaved-at: never") {
		t.Errorf("report does not spell out never:\n%s", txt.String())
	}
	if !strings.Contains(txt.String(), "locked band: flows 1,2") {
		t.Errorf("report does not list the locked band:\n%s", txt.String())
	}
}

func TestSampleTimeline(t *testing.T) {
	tl := make([]IterPoint, 10)
	for i := range tl {
		tl[i].Iter = i
	}
	got := sampleTimeline(tl, 4)
	if len(got) != 4 || got[0].Iter != 0 || got[3].Iter != 9 {
		t.Errorf("sampleTimeline = %v", got)
	}
	if n := len(sampleTimeline(tl, 20)); n != 10 {
		t.Errorf("oversampling changed length to %d", n)
	}
	if n := len(sampleTimeline(nil, 4)); n != 0 {
		t.Errorf("empty timeline sampled to %d", n)
	}
}
