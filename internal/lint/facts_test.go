package lint_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"mltcp/internal/lint"
)

// sampleFacts is a small store's worth of records covering every field
// shape: flags only, seed params, and all three witness strings.
var sampleFacts = []struct {
	key string
	f   lint.FuncFact
}{
	{"mltcp/internal/a.Alloc", lint.FuncFact{
		Flags:    lint.FactAllocates,
		AllocWhy: "closure literal at a.go:3",
	}},
	{"mltcp/internal/b.Clocky", lint.FuncFact{
		Flags:    lint.FactUsesWallClock | lint.FactSpawnsGoroutine,
		ClockWhy: "time.Now at b.go:9",
		SpawnWhy: "go statement at b.go:12",
	}},
	{"mltcp/internal/c.Stream", lint.FuncFact{
		Flags:      lint.FactRNGSource,
		SeedParams: []int{2, 0},
	}},
	{"(*mltcp/internal/c.Gen).Child", lint.FuncFact{
		Flags: lint.FactDerivesSeed,
	}},
}

// TestFactEncodeDeterministic pins the byte-identical-output contract
// vet's action cache depends on: insertion order must not matter, and
// decode(encode) must re-encode to the same bytes.
func TestFactEncodeDeterministic(t *testing.T) {
	encode := func(order []int) []byte {
		s := lint.NewFactStore()
		for _, i := range order {
			s.Set(sampleFacts[i].key, sampleFacts[i].f)
		}
		return s.Encode()
	}
	a := encode([]int{0, 1, 2, 3})
	b := encode([]int{3, 1, 0, 2})
	if !bytes.Equal(a, b) {
		t.Fatalf("encoding depends on insertion order:\n%s\nvs\n%s", a, b)
	}

	dec, err := lint.DecodeFacts(a)
	if err != nil {
		t.Fatalf("DecodeFacts: %v", err)
	}
	if dec.Len() != len(sampleFacts) {
		t.Fatalf("decoded %d records, want %d", dec.Len(), len(sampleFacts))
	}
	if got := dec.Encode(); !bytes.Equal(got, a) {
		t.Fatalf("decode/re-encode not byte-identical:\n%s\nvs\n%s", got, a)
	}
	// Set sorts seed params, so the round-tripped record is canonical.
	f, ok := dec.Get("mltcp/internal/c.Stream")
	if !ok || len(f.SeedParams) != 2 || f.SeedParams[0] != 0 || f.SeedParams[1] != 2 {
		t.Errorf("seed params not canonicalized: %v", f.SeedParams)
	}
}

func TestFactDecodeEdges(t *testing.T) {
	// Empty input is the vetx stub for non-module packages and the shape
	// of files written before this tier existed: an empty store, no error.
	s, err := lint.DecodeFacts(nil)
	if err != nil || s.Len() != 0 {
		t.Errorf("DecodeFacts(nil) = %d records, %v; want empty, nil", s.Len(), err)
	}

	bad := []string{
		"mltcp-facts/v0\n",                      // unknown version
		"mltcp-facts/v1\nk\t1\t-\t-\t-\n",       // five columns
		"mltcp-facts/v1\nk\tx\t-\t-\t-\t-\n",    // non-numeric flags
		"mltcp-facts/v1\nk\t1\tzero\t-\t-\t-\n", // bad seed param
		"mltcp-facts/v1\nk\t0\t-\t-\t-\t-\n",    // zero record
	}
	for _, in := range bad {
		if _, err := lint.DecodeFacts([]byte(in)); err == nil {
			t.Errorf("DecodeFacts(%q) succeeded, want error", in)
		}
	}
}

// TestFactWitnessSanitized pins that Set keeps witnesses single-line and
// tab-free, so a hostile or buggy witness cannot corrupt the row format.
func TestFactWitnessSanitized(t *testing.T) {
	s := lint.NewFactStore()
	s.Set("mltcp/internal/x.F", lint.FuncFact{
		Flags:    lint.FactAllocates,
		AllocWhy: "tab\there\nand newline",
	})
	enc := s.Encode()
	if lines := bytes.Count(enc, []byte("\n")); lines != 2 {
		t.Fatalf("encoding has %d newlines, want 2 (header + one row):\n%q", lines, enc)
	}
	dec, err := lint.DecodeFacts(enc)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	f, _ := dec.Get("mltcp/internal/x.F")
	if strings.ContainsAny(f.AllocWhy, "\t\n\r") {
		t.Errorf("witness not sanitized: %q", f.AllocWhy)
	}
}

// TestSummarizeDeterministic runs Summarize twice over the same fixture
// package — fresh file sets, fresh type info — and requires the encoded
// stores to be byte-identical, the property the vetx channel needs.
func TestSummarizeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data via go list")
	}
	exp, err := lint.Exports("", "fmt")
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	summarize := func() []byte {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "testdata/hotcall/helper.go", nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files := []*ast.File{f}
		pkg, info, soft, err := lint.Check(fset, lint.ExportImporter(fset, exp), "mltcp/internal/lint/helper", files)
		if err != nil {
			t.Fatalf("type-checking fixture: %v", err)
		}
		if len(soft) > 0 {
			t.Fatalf("fixture type errors: %v", soft)
		}
		store := lint.NewFactStore()
		lint.Summarize(fset, files, pkg, info, store)
		return store.Encode()
	}
	a := summarize()
	b := summarize()
	if !bytes.Equal(a, b) {
		t.Fatalf("Summarize not deterministic:\n%s\nvs\n%s", a, b)
	}
	// The fixture's facts must actually be there, or determinism is
	// trivially true: Boxy allocates locally, Wrapped transitively,
	// Justified's suppression and Explode's panic exemption kill theirs.
	dec, err := lint.DecodeFacts(a)
	if err != nil {
		t.Fatalf("decoding summary: %v", err)
	}
	for _, key := range []string{"mltcp/internal/lint/helper.Boxy", "mltcp/internal/lint/helper.Wrapped"} {
		f, ok := dec.Get(key)
		if !ok || !f.Flags.Has(lint.FactAllocates) {
			t.Errorf("%s: missing allocates fact (got %v, present=%v)", key, f.Flags, ok)
		}
	}
	for _, key := range []string{"mltcp/internal/lint/helper.Justified", "mltcp/internal/lint/helper.Explode"} {
		if f, ok := dec.Get(key); ok && f.Flags.Has(lint.FactAllocates) {
			t.Errorf("%s: allocates fact should be killed (suppression / panic exemption)", key)
		}
	}
}
