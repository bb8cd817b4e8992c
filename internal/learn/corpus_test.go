package learn

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCorpus feeds arbitrary bytes to ReadCorpus, the decoder behind
// mltcp-train -corpus. Properties: no panic and no hang, and an accepted
// corpus is a fixed point of WriteCorpus → ReadCorpus, header included
// (ReadCorpus accepts only a header whose runs count is the run lines').
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
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":1}\n\n{\"scenario\":\"s\",\"jobs\":null}\n",
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":1}\n{\"scn\":{},\"jobs\":[{\"f\":{}}]}\n",
		"{\"kind\":\"corpus\",\"schema\":2}\n{}\n",
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":1}\n{\"seed\":-1}\n",
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":1}\n{\"overlap\":1e400}\n",
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":1}\n{\"overlap_q\":[]}\n",
		"{\"kind\":\"corpus\",\"schema\":1,\"runs\":2}\n{}\n",
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
		if h != h2 {
			t.Fatalf("header changed in the round trip: %+v, then %+v", h, h2)
		}
		if !reflect.DeepEqual(runs, runs2) {
			t.Fatalf("runs changed in the round trip:\n%#v\nthen\n%#v", runs, runs2)
		}
	})
}

// TestReadCorpusTruncated cuts the 24-run synthetic corpus after its
// header and 12 run lines: ReadCorpus must refuse it, naming the header's
// runs and both counts, rather than train on half the data.
func TestReadCorpusTruncated(t *testing.T) {
	h, runs := syntheticCorpus()
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, h, runs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if len(lines) < 13 || len(runs) != 24 {
		t.Fatalf("%d runs in %d lines; want 24 runs", len(runs), len(lines))
	}
	cut := bytes.Join(lines[:13], nil)
	_, got, err := ReadCorpus(bytes.NewReader(cut))
	if err == nil {
		t.Fatalf("a corpus cut to 12 of 24 runs read back %d runs, no error", len(got))
	}
	for _, want := range []string{"runs", "24", "12"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if _, got, err := ReadCorpus(bytes.NewReader(buf.Bytes())); err != nil || len(got) != 24 {
		t.Fatalf("the whole corpus: %d runs, %v", len(got), err)
	}
}
