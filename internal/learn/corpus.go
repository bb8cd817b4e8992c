package learn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// CorpusSchema versions the corpus JSONL format.
const CorpusSchema = 1

// CorpusHeader is the first line of a corpus file.
type CorpusHeader struct {
	Kind    string `json:"kind"` // always "corpus"
	Schema  int    `json:"schema"`
	Grid    string `json:"grid"`    // generating grid name ("quick", "full")
	Backend string `json:"backend"` // backend the targets came from
	Seed    uint64 `json:"seed"`    // harness base seed
	Runs    int    `json:"runs"`
}

// CorpusJob is one job's training example within a run: its feature map
// and observed steady-state slowdown (at SteadySkip) from the simulator.
type CorpusJob struct {
	F        map[string]float64 `json:"f"`
	Slowdown float64            `json:"slowdown"`
}

// CorpusRun is one scenario execution: scenario-level features plus every
// target the model's heads train on. Feature maps serialize with sorted
// keys (encoding/json sorts map keys), so corpus bytes are deterministic.
type CorpusRun struct {
	Scenario        string             `json:"scenario"`
	Seed            uint64             `json:"seed"`
	Scn             map[string]float64 `json:"scn"`
	Jobs            []CorpusJob        `json:"jobs"`
	Overlap         float64            `json:"overlap"`
	InterleaveFrac  float64            `json:"interleave_frac"`
	Topology        bool               `json:"topology,omitempty"`
	SharedOverlap   float64            `json:"shared_overlap,omitempty"`
	DisjointOverlap float64            `json:"disjoint_overlap,omitempty"`
	OverlapQ        []float64          `json:"overlap_q,omitempty"`
}

// Map converts an ordered feature vector to the corpus map form,
// accumulating duplicate names.
func (v Vector) Map() map[string]float64 {
	m := make(map[string]float64, len(v))
	for _, f := range v {
		m[f.Name] += f.Value
	}
	return m
}

// HashMapInto accumulates a corpus feature map into a dense vector of
// length Dim. Keys are visited in sorted order so colliding slots sum in
// one canonical order — training sees the exact floats serving computes.
func HashMapInto(x []float64, f map[string]float64) {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx, sign := slot(k)
		x[idx] += sign * f[k]
	}
}

// WriteCorpus writes a header line and one JSON line per run.
func WriteCorpus(w io.Writer, h CorpusHeader, runs []CorpusRun) error {
	h.Kind = "corpus"
	h.Schema = CorpusSchema
	h.Runs = len(runs)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("learn: write corpus header: %w", err)
	}
	for i := range runs {
		if err := enc.Encode(&runs[i]); err != nil {
			return fmt.Errorf("learn: write corpus run %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCorpus parses a corpus file whose header's runs counts its run lines.
func ReadCorpus(r io.Reader) (CorpusHeader, []CorpusRun, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return CorpusHeader{}, nil, fmt.Errorf("learn: empty corpus")
	}
	var h CorpusHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return CorpusHeader{}, nil, fmt.Errorf("learn: corpus header: %w", err)
	}
	if h.Kind != "corpus" || h.Schema != CorpusSchema {
		return CorpusHeader{}, nil, fmt.Errorf("learn: corpus kind %q schema %d, want corpus schema %d",
			h.Kind, h.Schema, CorpusSchema)
	}
	var runs []CorpusRun
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var cr CorpusRun
		if err := json.Unmarshal(sc.Bytes(), &cr); err != nil {
			return CorpusHeader{}, nil, fmt.Errorf("learn: corpus run %d: %w", len(runs), err)
		}
		if len(cr.OverlapQ) == 0 {
			cr.OverlapQ = nil // WriteCorpus omits an empty overlap_q
		}
		runs = append(runs, cr)
	}
	if err := sc.Err(); err != nil {
		return CorpusHeader{}, nil, fmt.Errorf("learn: read corpus: %w", err)
	}
	if h.Runs != len(runs) {
		return CorpusHeader{}, nil, fmt.Errorf("learn: corpus header runs %d, but %d run lines", h.Runs, len(runs))
	}
	return h, runs, nil
}
