package learn

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadModel feeds arbitrary bytes to ReadModel, the decoder behind
// the learned backend and mltcp-train's output. Properties: no panic and
// no hang; an accepted model is a fixed point of Encode → ReadModel; and
// every head of an accepted model predicts on a zero vector of length Dim
// without panicking.
//
// Run it with go test -run='^$' -fuzz=FuzzReadModel ./internal/learn.
func FuzzReadModel(f *testing.F) {
	def, err := DefaultModel()
	if err != nil {
		f.Fatal(err)
	}
	one := *def
	one.Heads = def.Heads[:1]
	zero := Model{Schema: ModelSchema, Dim: Dim, Heads: []HeadModel{{Name: "z", Weights: make([]float64, Dim)}}}
	for _, m := range []*Model{def, &one, &zero} {
		var b bytes.Buffer
		if err := m.Encode(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	var b bytes.Buffer
	if err := zero.Encode(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Replace(b.Bytes(), []byte(`"name": "z",`), []byte(`"name": "z", "stumps": [],`), 1))
	f.Add(bytes.Replace(b.Bytes(), []byte(`"name": "z",`), []byte(`"name": "z", "stumps": [{"dim": 255, "left": 1}],`), 1))
	f.Add([]byte(`{"schema": 1, "dim": 256, "heads": null}`))
	f.Add([]byte(`{"schema": 1, "dim": 256, "heads": [{"name": "h", "weights": [0], "stumps": [{"dim": -1}]}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadModel(bytes.NewReader(in))
		if err != nil {
			return
		}
		x := make([]float64, Dim)
		for i := range m.Heads {
			m.Heads[i].Predict(x)
		}
		var enc bytes.Buffer
		if err := m.Encode(&enc); err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		m2, err := ReadModel(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("Encode output does not read back: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("model changed in the round trip:\n%#v\nthen\n%#v", m, m2)
		}
	})
}
