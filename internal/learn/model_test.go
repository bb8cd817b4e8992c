package learn

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// twoHeadsNamed encodes a model with two zero heads both called name.
func twoHeadsNamed(tb testing.TB, name string) []byte {
	tb.Helper()
	h := HeadModel{Name: name, Weights: make([]float64, Dim)}
	m := Model{Schema: ModelSchema, Dim: Dim, Heads: []HeadModel{h, h}}
	var b bytes.Buffer
	if err := m.Encode(&b); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// TestReadModelRejectsTrailingDataAndDuplicateHeads: the model object
// must be the input's only value, and no two heads may share a name;
// each error names what it rejected.
func TestReadModelRejectsTrailingDataAndDuplicateHeads(t *testing.T) {
	zero := Model{Schema: ModelSchema, Dim: Dim, Heads: []HeadModel{{Name: "z", Weights: make([]float64, Dim)}}}
	var b bytes.Buffer
	if err := zero.Encode(&b); err != nil {
		t.Fatal(err)
	}
	valid := b.Bytes()
	if _, err := ReadModel(bytes.NewReader(append(bytes.Clone(valid), " \t\r\n\n"...))); err != nil {
		t.Fatalf("trailing white space rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want []string // substrings of the error
	}{
		{"garbage", append(bytes.Clone(valid), `garbage {"schema": 9}`...),
			[]string{"trailing data", `"garbage {\"schema\": 9}"`}},
		{"second object", append(bytes.Clone(valid), "\n{\"schema\": 9}"...),
			[]string{"trailing data", `"{\"schema\": 9}"`}},
		{"duplicate head", twoHeadsNamed(t, "z"), []string{`heads 0 and 1 are both named "z"`}},
	} {
		_, err := ReadModel(bytes.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not contain %s", tc.name, err, w)
			}
		}
	}
	// The offset names where the trailing data starts.
	_, err := ReadModel(bytes.NewReader(append(bytes.Clone(valid), "  x"...)))
	if want := fmt.Sprintf("offset %d ", len(valid)+2); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("error %v does not name %q", err, want)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadModelStopsAtTrailingData: rejecting junk after the model object
// reads only a bounded prefix of it, not the whole input.
func TestReadModelStopsAtTrailingData(t *testing.T) {
	zero := Model{Schema: ModelSchema, Dim: Dim, Heads: []HeadModel{{Name: "z", Weights: make([]float64, Dim)}}}
	var b bytes.Buffer
	if err := zero.Encode(&b); err != nil {
		t.Fatal(err)
	}
	valid := b.Len()
	b.Write(bytes.Repeat([]byte("x"), 1<<20))
	in := &countingReader{r: &b}
	if _, err := ReadModel(in); err == nil || !strings.Contains(err.Error(), `"`+strings.Repeat("x", 32)+`"`) {
		t.Fatalf("error %v does not quote 32 bytes of the trailing data", err)
	}
	if in.n > valid+64<<10 {
		t.Errorf("read %d bytes of a %d-byte model followed by 1 MiB of junk, want <= 64 KiB past the model", in.n, valid)
	}
}

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
	f.Add(append(bytes.Clone(b.Bytes()), `garbage {"schema": 9}`...))
	f.Add(append(bytes.Clone(b.Bytes()), `{"schema": 9}`...))
	f.Add(twoHeadsNamed(f, "z"))
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
