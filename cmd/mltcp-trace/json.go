package main

import (
	"encoding/json"
	"io"

	"mltcp/internal/backend"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

// summarySchema versions the -json summary document, bumped on any
// incompatible change to its field set.
const summarySchema = 1

// quarters is how many equal spans of the horizon overlap_quarters
// scores.
const quarters = 4

// summary is the -json document. Durations are integer nanoseconds.
type summary struct {
	Kind             string                 `json:"kind"`
	Schema           int                    `json:"schema"`
	Manifest         *telemetry.Manifest    `json:"manifest"`
	Events           int                    `json:"events"`
	DroppedByLimiter int64                  `json:"dropped_by_limiter"`
	InterleavedAt    int                    `json:"interleaved_at"`
	Overlap          float64                `json:"overlap"`
	Jobs             []jobSummary           `json:"jobs"`
	OverlapQuarters  [quarters]float64      `json:"overlap_quarters"`
	Cluster          *backend.ClusterResult `json:"cluster,omitempty"`
	Metrics          *telemetry.Snapshot    `json:"metrics,omitempty"`
}

type jobSummary struct {
	Flow         int     `json:"flow"`
	Name         string  `json:"name"`
	Profile      string  `json:"profile"`
	Iterations   int     `json:"iterations"`
	SteadyIterNS int64   `json:"steady_iter_ns"`
	IdealNS      int64   `json:"ideal_ns"`
	Slowdown     float64 `json:"slowdown"`
	// congestion is nil, and its keys absent, for flows that emitted no
	// congestion events.
	*congestion
}

type congestion struct {
	Retx        int     `json:"retx"`
	RTO         int     `json:"rto"`
	Recoveries  int     `json:"recoveries"`
	CwndSamples int     `json:"cwnd_samples"`
	FinalCwnd   float64 `json:"final_cwnd"`
	FinalFactor float64 `json:"final_factor"`
}

// writeJSON emits the full summary — manifest, recomputed interleaving
// scores, per-job iteration and congestion tables, overlap per quarter,
// and the metrics snapshot — as one JSON document.
func writeJSON(w io.Writer, tr *telemetry.Trace, res *backend.Result, skip int) error {
	doc := summary{
		Kind:          "trace-summary",
		Schema:        summarySchema,
		Manifest:      tr.Manifest,
		Events:        len(tr.Events),
		InterleavedAt: res.InterleavedAt,
		Overlap:       res.OverlapScore,
		Jobs:          make([]jobSummary, len(res.Jobs)),
		Cluster:       res.Cluster,
		Metrics:       tr.Metrics,
	}
	// The recorder's sampling-limiter drop count is flushed into the
	// trace registry at write time (0 for traces predating the counter).
	if tr.Metrics != nil {
		doc.DroppedByLimiter = tr.Metrics.Counters[telemetry.LimiterDropsMetric]
	}

	stats, _ := collectFlowStats(tr.Events)
	for i := range res.Jobs {
		j := &res.Jobs[i]
		js := jobSummary{
			Name:         j.Name,
			Profile:      j.Profile,
			Iterations:   j.Iterations(),
			SteadyIterNS: int64(j.SteadyIter(skip)),
			IdealNS:      int64(j.Ideal),
			Slowdown:     j.Slowdown(skip),
		}
		if i < len(tr.Manifest.Jobs) {
			js.Flow = tr.Manifest.Jobs[i].Flow
		}
		if s, ok := stats[js.Flow]; ok {
			js.congestion = &congestion{
				Retx:        s.retx,
				RTO:         s.rto,
				Recoveries:  s.recoveries,
				CwndSamples: s.cwndSamples,
				FinalCwnd:   s.lastCwnd,
				FinalFactor: s.lastFactor,
			}
		}
		doc.Jobs[i] = js
	}

	for q := range doc.OverlapQuarters {
		from, until := res.Duration*sim.Time(q)/quarters, res.Duration*sim.Time(q+1)/quarters
		doc.OverlapQuarters[q] = backend.OverlapScoreOf(res.Jobs, from, until)
	}

	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
