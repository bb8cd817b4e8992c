// Package linttest runs lint analyzers over fixture source files,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture lines
// carry `// want "regexp"` comments naming the diagnostics the analyzer
// must report on that line, and the runner fails the test on any
// unexpected or missing finding.
//
// Fixtures live under testdata (so the go tool never builds them) and
// are type-checked against the repository's real dependency graph via
// export data, so they can import mltcp/internal/sim, the telemetry
// package, and the standard library exactly like production code.
package linttest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mltcp/internal/lint"
)

// fixtureDeps are the import paths fixtures may use, beyond whatever
// mltcp/... already pulls in. Listing them explicitly makes `go list
// -export` materialize their export data even if no repo package imports
// them.
var fixtureDeps = []string{
	"mltcp/...", "time", "math/rand", "math/rand/v2",
	"fmt", "strings", "sort", "encoding/json", "os",
}

var (
	exportsOnce sync.Once
	exports     map[string]string
	exportsErr  error
)

func depExports() (map[string]string, error) {
	exportsOnce.Do(func() {
		exports, exportsErr = lint.Exports("", fixtureDeps...)
	})
	return exports, exportsErr
}

// Run type-checks the fixture files as one package under pkgPath (so the
// analyzer's AppliesTo scoping sees the path the fixture impersonates),
// runs exactly the given analyzer through the full pipeline —
// fact summarization and suppressions included — and matches the
// resulting diagnostics against the fixtures' `// want "regexp"`
// expectations.
func Run(t *testing.T, a *lint.Analyzer, pkgPath string, fixtures ...string) {
	t.Helper()
	RunPkgs(t, a, PkgFixture{Path: pkgPath, Files: fixtures})
}

// A PkgFixture is one fixture package for RunPkgs: the import path it
// impersonates and its source files.
type PkgFixture struct {
	Path  string
	Files []string
}

// RunPkgs runs the analyzer over a chain of fixture packages, in order.
// Earlier packages are importable by later ones under their fixture
// paths (shadowing real export data, so a fixture can impersonate
// mltcp/internal/sim and be imported by a second fixture package), and
// each package is summarized into a shared fact store before the next
// is checked — exactly lint.Run's dependency-order
// pipeline. Diagnostics from every package are matched against `// want`
// expectations across all files.
func RunPkgs(t *testing.T, a *lint.Analyzer, pkgs ...PkgFixture) {
	t.Helper()
	exp, err := depExports()
	if err != nil {
		t.Fatalf("loading dependency export data: %v", err)
	}

	fset := token.NewFileSet()
	imp := &chainImporter{
		mem:      make(map[string]*types.Package),
		fallback: lint.ExportImporter(fset, exp),
	}
	store := lint.NewFactStore()
	wants := make(map[token.Position][]*expectation) // keyed by file:line via Position{Filename,Line}
	var diags []lint.Diagnostic
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.Files {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing fixture %s: %v", name, err)
			}
			files = append(files, f)
			for line, exps := range parseWants(t, name, string(src)) {
				wants[token.Position{Filename: name, Line: line}] = exps
			}
		}

		pkg, info, soft, err := lint.Check(fset, imp, p.Path, files)
		if err != nil {
			t.Fatalf("type-checking fixtures: %v", err)
		}
		// A fixture with type errors silently produces no findings,
		// which would let a broken fixture masquerade as a passing test.
		for _, e := range soft {
			t.Errorf("fixture type error: %v", e)
		}
		if t.Failed() {
			t.FailNow()
		}
		imp.mem[p.Path] = pkg

		lint.Summarize(fset, files, info, store)
		ds, err := lint.AnalyzeFacts(fset, files, pkg, info, []*lint.Analyzer{a}, store)
		if err != nil {
			t.Fatalf("analysis: %v", err)
		}
		diags = append(diags, ds...)
	}

	for _, d := range diags {
		key := token.Position{Filename: d.Pos.Filename, Line: d.Pos.Line}
		if !claim(wants[key], d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s:%d: no diagnostic matched want %q", key.Filename, key.Line, e.re.String())
			}
		}
	}
}

// chainImporter resolves fixture package paths from memory first, then
// falls back to real export data; in-memory entries shadow the
// repository's packages so fixtures can impersonate module paths.
type chainImporter struct {
	mem      map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.mem[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched expectation whose regexp matches msg
// (falling back to an already-matched one, so a line may legitimately
// produce two findings with the same message shape).
func claim(exps []*expectation, msg string) bool {
	for _, e := range exps {
		if !e.matched && e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	for _, e := range exps {
		if e.re.MatchString(msg) {
			return true
		}
	}
	return false
}

var (
	wantRE  = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quoteRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// parseWants extracts `// want "re" ["re" ...]` expectations, keyed by
// 1-based line number.
func parseWants(t *testing.T, name, src string) map[int][]*expectation {
	t.Helper()
	wants := make(map[int][]*expectation)
	for i, line := range strings.Split(src, "\n") {
		m := wantRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range quoteRE.FindAllString(m[1], -1) {
			pat, err := strconv.Unquote(q)
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", name, i+1, q, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
			}
			wants[i+1] = append(wants[i+1], &expectation{re: re})
		}
		if len(wants[i+1]) == 0 {
			t.Fatalf("%s:%d: want comment with no quoted regexp", name, i+1)
		}
	}
	return wants
}
