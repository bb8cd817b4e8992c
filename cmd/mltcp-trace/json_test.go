package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/telemetry"
)

// readTrace decodes a test trace file.
func readTrace(t *testing.T, path string) *telemetry.Trace {
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

// summarize renders the -json summary of a decoded trace into memory.
func summarize(t *testing.T, tr *telemetry.Trace) []byte {
	t.Helper()
	res, err := backend.ResultFromTrace(tr.Manifest, tr.Events)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeJSON(&out, tr, res, *skipFlag); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestJSONSummaryStableAndComplete(t *testing.T) {
	path, res := writeTestTrace(t)
	first := summarize(t, readTrace(t, path))
	second := summarize(t, readTrace(t, path))
	if !bytes.Equal(first, second) {
		t.Fatal("equal traces summarized to different bytes")
	}
	if !json.Valid(first) {
		t.Fatalf("summary is not valid JSON: %s", first)
	}

	var doc struct {
		Kind             string              `json:"kind"`
		Schema           int                 `json:"schema"`
		Manifest         *telemetry.Manifest `json:"manifest"`
		Events           int                 `json:"events"`
		DroppedByLimiter int64               `json:"dropped_by_limiter"`
		InterleavedAt    int                 `json:"interleaved_at"`
		Overlap          float64             `json:"overlap"`
		Jobs             []struct {
			Flow         int     `json:"flow"`
			Name         string  `json:"name"`
			Profile      string  `json:"profile"`
			Iterations   int     `json:"iterations"`
			SteadyIterNS int64   `json:"steady_iter_ns"`
			IdealNS      int64   `json:"ideal_ns"`
			Slowdown     float64 `json:"slowdown"`
		} `json:"jobs"`
		OverlapQuarters []float64           `json:"overlap_quarters"`
		Metrics         *telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Kind != "trace-summary" || doc.Schema != summarySchema {
		t.Fatalf("header kind=%q schema=%d", doc.Kind, doc.Schema)
	}
	if doc.Manifest == nil || doc.Manifest.Scenario != "cli-test" {
		t.Fatalf("manifest %+v", doc.Manifest)
	}
	if doc.Events == 0 {
		t.Fatal("zero events reported")
	}
	if doc.InterleavedAt != res.InterleavedAt || doc.Overlap != res.OverlapScore {
		t.Fatalf("scores (%d, %v) != run (%d, %v)",
			doc.InterleavedAt, doc.Overlap, res.InterleavedAt, res.OverlapScore)
	}
	if len(doc.Jobs) != len(res.Jobs) {
		t.Fatalf("%d jobs, want %d", len(doc.Jobs), len(res.Jobs))
	}
	for i, j := range doc.Jobs {
		want := res.Jobs[i]
		if j.Name != want.Name || j.Profile != want.Profile {
			t.Fatalf("job %d identity %+v", i, j)
		}
		if j.Flow != i+1 {
			t.Fatalf("job %d flow %d", i, j.Flow)
		}
		if j.Iterations != want.Iterations() {
			t.Fatalf("job %d iterations %d, want %d", i, j.Iterations, want.Iterations())
		}
		// Durations cross the JSON boundary as integer nanoseconds, so
		// the decoded values are exact, not float round-trips.
		if j.SteadyIterNS != int64(want.SteadyIter(*skipFlag)) || j.IdealNS != int64(want.Ideal) {
			t.Fatalf("job %d durations %+v", i, j)
		}
		if j.Slowdown != want.Slowdown(*skipFlag) {
			t.Fatalf("job %d slowdown %v, want %v", i, j.Slowdown, want.Slowdown(*skipFlag))
		}
	}
	if len(doc.OverlapQuarters) != 4 {
		t.Fatalf("%d overlap quarters, want 4", len(doc.OverlapQuarters))
	}
	if doc.Metrics == nil || doc.Metrics.Counters["job.iterations"] == 0 {
		t.Fatalf("metrics snapshot missing or empty: %+v", doc.Metrics)
	}

	// Absent blocks stay absent: a dumbbell summary has no cluster key,
	// and a job whose flow emitted no congestion events (here flow 2,
	// with its agg samples, the fluid tier's only ones, dropped) has none
	// of the retx…final_factor keys.
	tr := readTrace(t, path)
	kept := tr.Events[:0]
	for _, e := range tr.Events {
		if e.Flow != 2 || e.Kind != telemetry.KindAgg {
			kept = append(kept, e)
		}
	}
	tr.Events = kept
	var absent struct {
		Cluster json.RawMessage              `json:"cluster"`
		Jobs    []map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(summarize(t, tr), &absent); err != nil {
		t.Fatal(err)
	}
	if absent.Cluster != nil {
		t.Errorf("dumbbell summary has a cluster key: %s", absent.Cluster)
	}
	if len(absent.Jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(absent.Jobs))
	}
	for _, key := range []string{"retx", "rto", "recoveries", "cwnd_samples", "final_cwnd", "final_factor"} {
		if _, ok := absent.Jobs[0][key]; !ok {
			t.Errorf("flow 1 lacks %q", key)
		}
		if _, ok := absent.Jobs[1][key]; ok {
			t.Errorf("flow 2 has %q without congestion events", key)
		}
	}
}

// TestJSONClusterRoundTrip pins the -json rendering of topology runs: the
// cluster block round-trips the backend's ClusterResult exactly (floats
// use the shortest exact representation, so decoding is lossless).
func TestJSONClusterRoundTrip(t *testing.T) {
	scn := &config.Scenario{
		Name:        "cli-cluster",
		Policy:      "mltcp",
		DurationSec: 20,
		Topology:    &config.Topology{Kind: config.KindFatTree, K: 4},
		Jobs: []config.Job{
			{Name: "A", Profile: "gpt2", SrcRack: "rack0", DstRack: "rack4"},
			{Name: "B", Profile: "gpt2", SrcRack: "rack0", DstRack: "rack4"},
			{Name: "C", Profile: "bert"},
		},
	}
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	ctx := telemetry.WithRecorder(context.Background(), rec)
	res, err := (&backend.Fluid{}).Run(ctx, scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := telemetry.Write(&trace, rec.Manifest(), buf.Events(), reg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.jsonl")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	summary := summarize(t, readTrace(t, path))
	var doc struct {
		Cluster *struct {
			Topology        string  `json:"topology"`
			Racks           int     `json:"racks"`
			Links           int     `json:"links"`
			SharingPairs    int     `json:"sharing_pairs"`
			DisjointPairs   int     `json:"disjoint_pairs"`
			SharedOverlap   float64 `json:"shared_overlap"`
			DisjointOverlap float64 `json:"disjoint_overlap"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(summary, &doc); err != nil {
		t.Fatal(err)
	}
	c := doc.Cluster
	if c == nil {
		t.Fatalf("topology summary has no cluster block: %s", summary)
	}
	want := res.Cluster
	if c.Topology != want.Topology || c.Racks != want.Racks || c.Links != want.Links ||
		c.SharingPairs != want.SharingPairs || c.DisjointPairs != want.DisjointPairs ||
		c.SharedOverlap != want.SharedOverlap || c.DisjointOverlap != want.DisjointOverlap {
		t.Fatalf("cluster block %+v does not round-trip %+v", c, want)
	}
}

// TestRunJSONMode drives run() end to end with -json set.
func TestRunJSONMode(t *testing.T) {
	path, _ := writeTestTrace(t)
	*jsonFlag = true
	defer func() { *jsonFlag = false }()
	if err := run(path); err != nil {
		t.Fatal(err)
	}
}
