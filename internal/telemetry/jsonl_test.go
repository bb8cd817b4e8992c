package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mltcp/internal/sim"
)

// TestReadCorruptLineIsLineNumbered pins the reader's failure contract:
// a corrupt JSONL line (here, line 2) fails with its line number and a
// "corrupt or truncated" message instead of a garbled partial decode.
func TestReadCorruptLineIsLineNumbered(t *testing.T) {
	in := `{"t":1,"kind":"retx","flow":1,"seq":5}` + "\n" +
		`{"t":2,"kind":"retx","flow":1,` + "\n" + // corrupt: cut mid-object
		`{"t":3,"kind":"retx","flow":1,"seq":7}` + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("corrupt line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name line 2: %v", err)
	}
	if !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("error does not say corrupt/truncated: %v", err)
	}
}

// TestReadTruncatedFinalLine covers the mid-write truncation shape: the
// file's last line stops inside a JSON string.
func TestReadTruncatedFinalLine(t *testing.T) {
	in := `{"t":1,"kind":"retx","flow":1,"seq":5}` + "\n" +
		`{"t":2,"kind":"cw`
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("truncated final line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "corrupt or truncated") {
		t.Errorf("truncation error = %v, want line-numbered corrupt/truncated", err)
	}
}

// TestReadRejectsSchemaMismatch: a manifest from another schema version
// must fail with both versions named, not half-decode.
func TestReadRejectsSchemaMismatch(t *testing.T) {
	in := `{"kind":"manifest","schema":99,"scenario":"x","backend":"fluid","policy":"mltcp","seed":1,"capacity_gbps":50,"scale":1,"duration_ns":1,"jobs":[]}` + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("schema v99 manifest accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "trace is v99") || !strings.Contains(msg, "reader supports v1") {
		t.Errorf("schema error = %v, want \"trace is v99, reader supports v1\"", err)
	}
	if !strings.Contains(msg, "line 1") {
		t.Errorf("schema error does not name the line: %v", err)
	}
}

// TestReadTrace covers the path-based entry point: success, decode
// errors annotated with the path, and missing files.
func TestReadTrace(t *testing.T) {
	dir := t.TempDir()

	good := filepath.Join(dir, "good.jsonl")
	var buf bytes.Buffer
	if err := Write(&buf, nil, []Event{{At: 1, Kind: KindRetransmit, Flow: 1, N: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("got %d events", len(tr.Events))
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(bad); err == nil || !strings.Contains(err.Error(), "bad.jsonl") {
		t.Errorf("decode error not annotated with path: %v", err)
	}

	if _, err := ReadTrace(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestEncodeEventMatchesWrite: EncodeEvent must render exactly the line
// Write emits for the event.
func TestEncodeEventMatchesWrite(t *testing.T) {
	for _, e := range allKindsEvents() {
		line, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, nil, []Event{e}, nil); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(buf.String(), "\n")
		if line != want {
			t.Errorf("EncodeEvent(%v) = %q, Write emitted %q", e.Kind, line, want)
		}
	}
	if _, err := EncodeEvent(Event{Kind: Kind(200)}); err == nil {
		t.Error("unknown kind encoded")
	}
}

// TestEventFieldsMatchSchema: every field name Fields reports must appear
// in the event's wire encoding, with the identical value rendering.
func TestEventFieldsMatchSchema(t *testing.T) {
	for _, e := range allKindsEvents() {
		line, err := EncodeEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		fields := e.Fields()
		if len(fields) == 0 {
			t.Fatalf("kind %v has no decoded fields", e.Kind)
		}
		for _, f := range fields {
			want := `"` + f.Name + `":` + f.Value
			if !strings.Contains(line, want) {
				t.Errorf("kind %v: field %s=%s not in wire line %s", e.Kind, f.Name, f.Value, line)
			}
		}
	}
	if fields := (Event{Kind: Kind(200)}).Fields(); fields != nil {
		t.Errorf("unknown kind decoded fields %v", fields)
	}
}

// TestFlushLimiterStats: the limiter's drop count lands in the registry
// under LimiterDropsMetric, and is present even at zero drops.
func TestFlushLimiterStats(t *testing.T) {
	rec, _, reg := NewBuffered(Options{SampleEvery: 10 * sim.Millisecond})
	rec.CwndUpdate(0, 1, 10, 5, sim.Millisecond)
	rec.CwndUpdate(sim.Millisecond, 1, 11, 5, sim.Millisecond)   // dropped
	rec.CwndUpdate(2*sim.Millisecond, 1, 12, 5, sim.Millisecond) // dropped
	rec.FlushLimiterStats()
	if got := reg.Snapshot().Counters[LimiterDropsMetric]; got != 2 {
		t.Errorf("%s = %d, want 2", LimiterDropsMetric, got)
	}

	recZero, _, regZero := NewBuffered(Options{})
	recZero.FlushLimiterStats()
	if v, ok := regZero.Snapshot().Counters[LimiterDropsMetric]; !ok || v != 0 {
		t.Errorf("zero-drop flush: counter = %d (present %v), want 0 present", v, ok)
	}

	var nilRec *Recorder
	nilRec.FlushLimiterStats() // must not panic
}
