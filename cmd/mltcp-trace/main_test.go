package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/telemetry"
)

func tracedScenario() *config.Scenario {
	return &config.Scenario{
		Name:        "cli-test",
		Policy:      "mltcp",
		DurationSec: 20,
		Jobs: []config.Job{
			{Name: "J1", Profile: "gpt2"},
			{Name: "J2", Profile: "gpt2"},
		},
	}
}

// writeTestTrace runs a short traced fluid scenario and writes its JSONL
// trace, returning the path and the run's result.
func writeTestTrace(t *testing.T) (string, *backend.Result) {
	t.Helper()
	scn := tracedScenario()
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	res, err := (&backend.Fluid{}).Run(ctx, scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res
}

// TestRoundTrip pins the producer→file→consumer pipeline: a trace written
// by the backend decodes fully and ResultFromTrace reproduces the run's
// interleaving scores.
func TestRoundTrip(t *testing.T) {
	path, res := writeTestTrace(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := telemetry.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Manifest == nil || tr.Metrics == nil || len(tr.Events) == 0 {
		t.Fatalf("incomplete trace: manifest=%v metrics=%v events=%d",
			tr.Manifest != nil, tr.Metrics != nil, len(tr.Events))
	}
	if tr.Manifest.Backend != "fluid" || len(tr.Manifest.Jobs) != 2 {
		t.Fatalf("manifest %+v", tr.Manifest)
	}
	got, err := backend.ResultFromTrace(tr.Manifest, tr.Events)
	if err != nil {
		t.Fatal(err)
	}
	if got.InterleavedAt != res.InterleavedAt || got.OverlapScore != res.OverlapScore {
		t.Fatalf("scores from trace (%d, %v) != run (%d, %v)",
			got.InterleavedAt, got.OverlapScore, res.InterleavedAt, res.OverlapScore)
	}
	if n := tr.Metrics.Counters["job.iterations"]; n == 0 {
		t.Fatal("metrics line missing job.iterations")
	}
}

// TestRunSummarizes drives the CLI's run() over a real trace file.
func TestRunSummarizes(t *testing.T) {
	path, _ := writeTestTrace(t)
	if err := run(path); err != nil {
		t.Fatal(err)
	}
}

// TestLearnedTraceRoundTrip runs the checked-in learned-demo scenario on
// the learned backend with telemetry, writes the (manifest-only) trace,
// and asserts the CLI summarizes it without error in both text and -json
// modes — the predicted-trace analogue of TestRunSummarizes.
func TestLearnedTraceRoundTrip(t *testing.T) {
	f, err := os.Open(filepath.FromSlash("../../examples/scenarios/learned-demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	scn, err := config.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	if _, err := (&backend.Learned{}).Run(ctx, &scn, 1); err != nil {
		t.Fatal(err)
	}
	if rec.Manifest() == nil || !rec.Manifest().Predicted {
		t.Fatalf("learned manifest not marked predicted: %+v", rec.Manifest())
	}
	var out bytes.Buffer
	if err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "learned.jsonl")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(path); err != nil {
		t.Fatalf("text summary of predicted trace: %v", err)
	}

	tf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tr, err := telemetry.Read(tf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := backend.ResultFromTrace(tr.Manifest, tr.Events)
	if err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := writeJSON(&js, tr, res, *skipFlag); err != nil {
		t.Fatalf("-json summary of predicted trace: %v", err)
	}
	if !bytes.Contains(js.Bytes(), []byte(`"predicted":true`)) {
		t.Fatalf("JSON summary does not carry the predicted flag:\n%s", js.String())
	}
}

func TestRunRejectsMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestRunCorruptTraceNamesFile: a decode error names the trace file as
// well as the line, so a batch of summaries points at the bad one.
func TestRunCorruptTraceNamesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(path, []byte(`{"t":1,"kind":"retx",`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(path)
	if err == nil {
		t.Fatal("corrupt trace accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "line 1: corrupt or truncated") {
		t.Errorf("error %q does not name %s and line 1", msg, path)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	got := downsample(vals, 3)
	want := []float64{1.5, 3.5, 5.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("downsample = %v, want %v", got, want)
		}
	}
	if out := downsample(vals, 10); len(out) != len(vals) {
		t.Fatal("short input should pass through")
	}
	if out := downsample(vals, len(vals)); len(out) != len(vals) {
		t.Fatal("n == len should pass through")
	}
	if out := downsample(vals, 1); len(out) != 1 || out[0] != 3.5 {
		t.Fatalf("downsample to one point = %v, want [3.5]", out)
	}
	if out := downsample(nil, 3); len(out) != 0 {
		t.Fatalf("empty input = %v, want empty", out)
	}
}
