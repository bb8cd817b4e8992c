package learn

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadCorpus feeds arbitrary bytes to ReadCorpus, the decoder behind
// mltcp-train -corpus. Properties: no panic and no hang, and an accepted
// corpus is a fixed point of WriteCorpus → ReadCorpus (the header's Runs
// excepted, since WriteCorpus sets it from the run count).
//
// Run it with go test -run='^$' -fuzz=FuzzReadCorpus ./internal/learn.
func FuzzReadCorpus(f *testing.F) {
	h, runs := syntheticCorpus()
	var seed bytes.Buffer
	if err := WriteCorpus(&seed, h, runs[:2]); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for _, line := range bytes.Split(seed.Bytes(), []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"kind":"corpus","schema":1}`,
		"{\"kind\":\"corpus\",\"schema\":1}\n\n{\"scenario\":\"s\",\"jobs\":null}\n",
		"{\"kind\":\"corpus\",\"schema\":1}\n{\"scn\":{},\"jobs\":[{\"f\":{}}]}\n",
		"{\"kind\":\"corpus\",\"schema\":2}\n{}\n",
		"{\"kind\":\"corpus\",\"schema\":1}\n{\"seed\":-1}\n",
		"{\"kind\":\"corpus\",\"schema\":1}\n{\"overlap\":1e400}\n",
		"{\"kind\":\"corpus\",\"schema\":1}\n{\"overlap_q\":[]}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, runs, err := ReadCorpus(bytes.NewReader(in))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteCorpus(&enc, h, runs); err != nil {
			t.Fatalf("accepted corpus does not encode: %v", err)
		}
		h2, runs2, err := ReadCorpus(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("WriteCorpus output does not read back: %v\n%s", err, enc.Bytes())
		}
		h.Runs, h2.Runs = 0, 0
		if h != h2 {
			t.Fatalf("header changed in the round trip: %+v, then %+v", h, h2)
		}
		if !reflect.DeepEqual(runs, runs2) {
			t.Fatalf("runs changed in the round trip:\n%#v\nthen\n%#v", runs, runs2)
		}
	})
}
