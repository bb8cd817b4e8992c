package learn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ModelSchema versions the model file format. Readers reject other
// schemas instead of misinterpreting bytes.
const ModelSchema = 1

// Head names every quantity the default model predicts. Slowdown is the
// only per-job head; the rest are scenario-level.
const (
	HeadSlowdown      = "slowdown"         // per-job steady-state slowdown (≥1)
	HeadOverlap       = "overlap"          // dumbbell overlap score ∈ [0,1]
	HeadInterleave    = "interleave_frac"  // InterleavedAt / max iterations; 1.25 = never
	HeadSharedOverlap = "shared_overlap"   // topology: overlap among link-sharing pairs
	HeadDisjointLoad  = "disjoint_overlap" // topology: overlap among disjoint pairs
	HeadOverlapQ1     = "overlap_q1"       // overlap score per duration quarter
	HeadOverlapQ2     = "overlap_q2"
	HeadOverlapQ3     = "overlap_q3"
	HeadOverlapQ4     = "overlap_q4"
)

// InterleaveNever is the regression target encoding "the scenario never
// interleaved" for HeadInterleave: safely above every achievable fraction
// (≤1) so the serving threshold can separate the two cases.
const InterleaveNever = 1.25

// Stump is one boosted decision stump: x[Dim] ≤ Threshold chooses Left,
// else Right. Leaf values already include the training shrinkage.
type Stump struct {
	Dim       int     `json:"dim"`
	Threshold float64 `json:"threshold"`
	Left      float64 `json:"left"`
	Right     float64 `json:"right"`
}

// HeadModel predicts one target: a ridge-regression base over the hashed
// feature space plus a boosted-stump correction on its residuals.
type HeadModel struct {
	Name    string    `json:"name"`
	Weights []float64 `json:"weights"`
	Stumps  []Stump   `json:"stumps,omitempty"`
}

// Predict evaluates the head on a dense hashed vector of length Dim.
func (h *HeadModel) Predict(x []float64) float64 {
	var y float64
	for i, w := range h.Weights {
		y += w * x[i]
	}
	for _, s := range h.Stumps {
		if x[s.Dim] <= s.Threshold {
			y += s.Left
		} else {
			y += s.Right
		}
	}
	return y
}

// Model is a trained learned-backend model: one head per predicted
// quantity over a shared hashed feature space. Heads are kept sorted by
// name so the serialized form is canonical.
type Model struct {
	Schema int         `json:"schema"`
	Dim    int         `json:"dim"`
	Seed   uint64      `json:"seed"`
	Corpus string      `json:"corpus"` // provenance note: grid name + run count
	Heads  []HeadModel `json:"heads"`
}

// Head returns the named head, or nil if the model does not predict it.
func (m *Model) Head(name string) *HeadModel {
	for i := range m.Heads {
		if m.Heads[i].Name == name {
			return &m.Heads[i]
		}
	}
	return nil
}

// Encode writes the model as indented JSON with a trailing newline. The
// encoding is canonical: struct field order is fixed and heads are sorted,
// so equal models produce equal bytes.
func (m *Model) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("learn: encode model: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// trailingData reads what follows dec's last value in r, skipping white
// space. It returns the offset of the first other byte and at most 32
// bytes from there, or no bytes at the end of the input; it reads no
// further, so junk after the value is never held in full.
func trailingData(dec *json.Decoder, r io.Reader) (int64, []byte, error) {
	br := bufio.NewReader(io.MultiReader(dec.Buffered(), r))
	for off := dec.InputOffset(); ; off++ {
		c, err := br.ReadByte()
		if err == io.EOF {
			return off, nil, nil
		}
		if err != nil {
			return off, nil, err
		}
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			tail := make([]byte, 32)
			tail[0] = c
			n, err := io.ReadFull(br, tail[1:])
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = nil
			}
			return off, tail[:1+n], err
		}
	}
}

// ReadModel parses and validates a model file.
func ReadModel(r io.Reader) (*Model, error) {
	var m Model
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("learn: parse model: %w", err)
	}
	// The model object is the file's only value: white space may follow
	// it, nothing else.
	off, tail, err := trailingData(dec, r)
	if err != nil {
		return nil, fmt.Errorf("learn: read model: %w", err)
	}
	if len(tail) > 0 {
		return nil, fmt.Errorf("learn: trailing data at offset %d after the model object: %q", off, tail)
	}
	if m.Schema != ModelSchema {
		return nil, fmt.Errorf("learn: model schema %d, want %d", m.Schema, ModelSchema)
	}
	if m.Dim != Dim {
		return nil, fmt.Errorf("learn: model dim %d, want %d", m.Dim, Dim)
	}
	for i, h := range m.Heads {
		for k := range i {
			if m.Heads[k].Name == h.Name {
				return nil, fmt.Errorf("learn: heads %d and %d are both named %q", k, i, h.Name)
			}
		}
		if len(h.Stumps) == 0 {
			m.Heads[i].Stumps = nil // Encode omits an empty stumps
		}
		if len(h.Weights) != m.Dim {
			return nil, fmt.Errorf("learn: head %q has %d weights, want %d", h.Name, len(h.Weights), m.Dim)
		}
		for _, s := range h.Stumps {
			if s.Dim < 0 || s.Dim >= m.Dim {
				return nil, fmt.Errorf("learn: head %q stump dim %d out of range", h.Name, s.Dim)
			}
		}
	}
	return &m, nil
}
