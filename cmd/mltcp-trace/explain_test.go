package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/telemetry"
)

// readTestTrace decodes the trace file written by writeTestTrace.
func readTestTrace(t *testing.T, path string) *telemetry.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := telemetry.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestExplainText pins the -explain rendering: interleave verdict first,
// then bottleneck attribution, both derived from the same trace.
func TestExplainText(t *testing.T) {
	path, res := writeTestTrace(t)
	tr := readTestTrace(t, path)
	var out bytes.Buffer
	if err := explain(&out, tr, false); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"scenario: cli-test", "verdict:", "bottleneck attribution"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain text missing %q:\n%s", want, text)
		}
	}
	if res.InterleavedAt >= 0 && !strings.Contains(text, "interleaved at iter") {
		t.Fatalf("converged run's verdict does not say so:\n%s", text)
	}

	// Byte-deterministic across invocations.
	var again bytes.Buffer
	if err := explain(&again, tr, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatal("explain text differs across invocations of the same trace")
	}
}

// TestExplainJSON pins the -explain -json output: exactly the interleave
// report as one newline-terminated stable JSON document.
func TestExplainJSON(t *testing.T) {
	path, _ := writeTestTrace(t)
	tr := readTestTrace(t, path)
	var out bytes.Buffer
	if err := explain(&out, tr, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out.Bytes(), []byte(`{"kind":"interleave-report","schema":1,`)) {
		t.Fatalf("unexpected JSON header: %.80s", out.String())
	}
	if !bytes.HasSuffix(out.Bytes(), []byte("}\n")) {
		t.Fatal("JSON report is not newline-terminated")
	}
}

// TestRunExplainMode drives run() end to end with -explain set, in both
// text and JSON forms.
func TestRunExplainMode(t *testing.T) {
	path, _ := writeTestTrace(t)
	*explainFlag = true
	defer func() { *explainFlag = false }()
	if err := run(path); err != nil {
		t.Fatal(err)
	}
	*jsonFlag = true
	defer func() { *jsonFlag = false }()
	if err := run(path); err != nil {
		t.Fatal(err)
	}
}

// TestJSONSummaryDroppedByLimiter pins the dropped_by_limiter counter in
// the -json summary: present (as 0) when the recorder never dropped, and
// reflecting the flushed counter when it did.
func TestJSONSummaryDroppedByLimiter(t *testing.T) {
	path, res := writeTestTrace(t)
	tr := readTestTrace(t, path)
	var out bytes.Buffer
	if err := writeJSON(&out, tr, res, *skipFlag); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"dropped_by_limiter":0`)) {
		t.Fatalf("summary missing zero dropped_by_limiter:\n%s", out.String())
	}

	tr.Metrics.Counters[telemetry.LimiterDropsMetric] = 7
	out.Reset()
	if err := writeJSON(&out, tr, res, *skipFlag); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"dropped_by_limiter":7`)) {
		t.Fatalf("summary does not surface the flushed drop counter:\n%s", out.String())
	}
}

// TestInterleaveEvolutionNeverConverged pins the closing line of the
// evolution table when the run never interleaved: the -1 sentinel is
// spelled out instead of printed raw.
func TestInterleaveEvolutionNeverConverged(t *testing.T) {
	_, res := writeTestTrace(t)
	never := *res
	never.InterleavedAt = -1
	var out bytes.Buffer
	printInterleaveEvolution(&out, &never)
	if !strings.Contains(out.String(), "interleaved-at: never (within horizon)") {
		t.Fatalf("never-converged run not spelled out:\n%s", out.String())
	}
	if strings.Contains(out.String(), "-1") {
		t.Fatalf("raw -1 sentinel leaked into output:\n%s", out.String())
	}

	out.Reset()
	printInterleaveEvolution(&out, res)
	if res.InterleavedAt >= 0 && !strings.Contains(out.String(), "interleaved-at: iter ") {
		t.Fatalf("converged run missing iteration line:\n%s", out.String())
	}

	// Degenerate results (no duration, or a single job) print nothing.
	out.Reset()
	printInterleaveEvolution(&out, &backend.Result{})
	if out.Len() != 0 {
		t.Fatalf("empty result produced output: %q", out.String())
	}
}
