package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"mltcp/internal/lint"
)

// TestFactWitnessSanitized pins that Set keeps witnesses single-line:
// every diagnostic that cites a fact threads its witness into one output
// line, so a hostile or buggy witness must not split it.
func TestFactWitnessSanitized(t *testing.T) {
	s := lint.NewFactStore()
	s.Set("mltcp/internal/x.F", lint.FuncFact{
		Flags:    lint.FactAllocates,
		AllocWhy: "tab\there\nand\rreturn",
	})
	f, ok := s.Get("mltcp/internal/x.F")
	if !ok {
		t.Fatal("record missing after Set")
	}
	if strings.ContainsAny(f.AllocWhy, "\t\n\r") {
		t.Errorf("witness not sanitized: %q", f.AllocWhy)
	}
}

// TestSummarizeDeterministic runs Summarize twice over the same fixture
// package — fresh file sets, fresh type info — and requires the two
// stores to be equal, so repeated runs report the same findings.
func TestSummarizeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads export data via go list")
	}
	exp, err := lint.Exports("", "fmt")
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	summarize := func() *lint.FactStore {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "testdata/hotcall/helper.go", nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files := []*ast.File{f}
		_, info, soft, err := lint.Check(fset, lint.ExportImporter(fset, exp), "mltcp/internal/lint/helper", files)
		if err != nil {
			t.Fatalf("type-checking fixture: %v", err)
		}
		if len(soft) > 0 {
			t.Fatalf("fixture type errors: %v", soft)
		}
		store := lint.NewFactStore()
		lint.Summarize(fset, files, info, store)
		return store
	}
	a := summarize()
	b := summarize()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Summarize not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	// The fixture's facts must actually be there, or determinism is
	// trivially true: Boxy allocates locally, Wrapped transitively,
	// Justified's suppression and Explode's panic exemption kill theirs.
	for _, key := range []string{"mltcp/internal/lint/helper.Boxy", "mltcp/internal/lint/helper.Wrapped"} {
		f, ok := a.Get(key)
		if !ok || !f.Flags.Has(lint.FactAllocates) {
			t.Errorf("%s: missing allocates fact (got %v, present=%v)", key, f.Flags, ok)
		}
	}
	for _, key := range []string{"mltcp/internal/lint/helper.Justified", "mltcp/internal/lint/helper.Explode"} {
		if f, ok := a.Get(key); ok && f.Flags.Has(lint.FactAllocates) {
			t.Errorf("%s: allocates fact should be killed (suppression / panic exemption)", key)
		}
	}
}
