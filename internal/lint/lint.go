// Package lint is mltcp's static-analysis suite: seven analyzers that
// enforce the invariants the simulator's tests can only spot-check —
// determinism (no wall clock, no global randomness, no map-order leaks),
// unit discipline (integer-nanosecond time never silently mixed with
// float seconds), telemetry emission hygiene (nil-receiver-safe
// recorders, integer-ns timestamps), registry-sourced CLI names,
// seed-provenance taint (seedflow), a transitive allocation-free
// discipline for //hot-marked event-path functions (hotcall), and
// goroutine-lifecycle joining (concguard).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built on the standard library
// alone: packages are enumerated with `go list -export`, type-checked
// with go/types against compiler export data, and driven by one
// command (cmd/mltcp-lint ./...).
//
// The suite is interprocedural: Summarize computes per-function facts
// (facts.go) bottom-up over each package's call graph, and analyzers
// read them through Pass.Facts. The driver accumulates facts in memory
// across `go list -deps` order.
//
// Findings are suppressed with a justified marker on the offending line
// or the line above:
//
//	//lint:allow <analyzer> <reason...>
//
// A marker without a reason is itself a diagnostic: suppressions are
// part of the audit trail, not an escape hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one lint rule.
type Analyzer struct {
	// Name identifies the analyzer in output and //lint:allow markers.
	Name string
	// Doc is a one-paragraph description shown by -help.
	Doc string
	// AppliesTo reports whether the analyzer runs on a package path.
	// Nil means every package.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds the function facts visible to this package: its own
	// (Summarize runs before analysis) plus everything summarized from its
	// dependencies. Never nil in driver-constructed passes; FactStore's
	// methods are nil-safe regardless.
	Facts *FactStore

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source tree.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// AllowPrefix is the suppression marker syntax.
const AllowPrefix = "//lint:allow"

// allowKey locates a suppression: one analyzer on one line of one file.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions scans the files' comments for //lint:allow markers. Each
// well-formed marker suppresses its analyzer on the marker's line and
// the line below (so a marker can sit on the offending line or stand
// alone above it). Malformed markers — missing the analyzer name or the
// reason — are returned as diagnostics under the "lint" analyzer.
func suppressions(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, []Diagnostic) {
	allowed := make(map[allowKey]bool)
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed %s: need an analyzer name and a reason", AllowPrefix),
					})
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					allowed[allowKey{pos.Filename, line, fields[0]}] = true
				}
			}
		}
	}
	return allowed, malformed
}

// Analyze runs the analyzers over one type-checked package with an
// empty fact store: the legacy single-package entry point, kept for
// callers that exercise only intraprocedural rules.
func Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	return AnalyzeFacts(fset, files, pkg, info, analyzers, NewFactStore())
}

// AnalyzeFacts runs the analyzers over one type-checked package and
// returns the surviving findings: scope-filtered by AppliesTo, with
// _test.go positions dropped (the invariants govern simulation code,
// not its tests) and //lint:allow suppressions applied. Facts for the
// package and its dependencies are read from store (the driver runs
// Summarize first). The result is sorted by position so output is
// deterministic regardless of analyzer order.
//
// Suppressions are part of the audit trail, so they are themselves
// checked: a marker naming an analyzer nobody knows, or one in the run
// set that suppresses nothing (neither a diagnostic nor a fact-bearing
// site), is reported under the "lint" analyzer.
func AnalyzeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {

	path := pkg.Path()
	// go vet presents test variants as "path [path.test]"; scope
	// decisions use the base path.
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}

	ran := make(map[string]bool)
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(path) {
			continue
		}
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Facts:     store,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, path, err)
		}
	}

	allowed, malformed := suppressions(fset, files)
	used := make(map[allowKey]bool)
	kept := malformed
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		k := allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}
		if allowed[k] {
			used[k] = true
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, auditAllows(fset, files, info, ran, used)...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// Analyzers returns the default suite in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{SimDeterminism, SimUnits, TelemetryEmit, RegistryName, SeedFlow, HotCall, ConcGuard}
}

// knownAnalyzerNames are every name //lint:allow may legitimately cite:
// the default roster and the framework's own "lint" channel.
func knownAnalyzerNames() map[string]bool {
	names := map[string]bool{"lint": true}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// auditAllows checks the package's well-formed //lint:allow markers:
// unknown analyzer names are findings, and markers for analyzers that
// ran here but suppressed nothing — no diagnostic, and no fact-bearing
// site on the covered lines — are stale findings.
func auditAllows(fset *token.FileSet, files []*ast.File, info *types.Info,
	ran map[string]bool, used map[allowKey]bool) []Diagnostic {

	known := knownAnalyzerNames()
	var out []Diagnostic
	for _, f := range files {
		fileName := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(fileName, "_test.go") {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, AllowPrefix))
				if len(fields) < 2 {
					continue // already reported as malformed
				}
				name := fields[0]
				pos := fset.Position(c.Pos())
				if !known[name] {
					out = append(out, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("%s names unknown analyzer %q", AllowPrefix, name),
					})
					continue
				}
				if !ran[name] {
					continue // scoped out here; cannot judge staleness
				}
				usedHere := used[allowKey{pos.Filename, pos.Line, name}] ||
					used[allowKey{pos.Filename, pos.Line + 1, name}]
				if !usedHere && !factSuppressionAt(fset, f, info, name, pos.Line) {
					out = append(out, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  fmt.Sprintf("stale %s %s: nothing suppressed on this line or the next", AllowPrefix, name),
					})
				}
			}
		}
	}
	return out
}

// factSuppressionAt reports whether a //lint:allow on the given line
// suppresses a fact instead of a diagnostic: an allocation site (for
// hotcall, which may sit in a non-//hot function and so never
// produce a local finding, while still killing FactAllocates) or a
// wall-clock read (for simdeterminism, killing FactUsesWallClock).
// Such markers are load-bearing even when no diagnostic consumed them.
func factSuppressionAt(fset *token.FileSet, file *ast.File, info *types.Info,
	name string, line int) bool {

	covers := func(pos token.Pos) bool {
		l := fset.Position(pos).Line
		return l == line || l == line+1
	}
	found := false
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		switch name {
		case HotCall.Name:
			forEachAllocSite(info, fd.Body, func(s allocSite) {
				if covers(s.pos) {
					found = true
				}
			})
		case SimDeterminism.Name:
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, ok := isPkgFunc(info, call, "time"); ok &&
					(fn == "Now" || fn == "Since") && covers(call.Pos()) {
					found = true
				}
				return true
			})
		}
		if found {
			return true
		}
	}
	return found
}

// --- shared type/AST helpers used by the analyzers ---

// funcObj resolves a call's callee to a *types.Func, nil when the callee
// is not a named function or method (e.g. a conversion or func value).
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether call invokes a package-level function (not a
// method) of pkgPath, returning its name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	f := funcObj(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	return f.Name(), true
}

// namedType returns the defining package path and name of t's core named
// type, unwrapping pointers and aliases; ok is false for unnamed types.
func namedType(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	n, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed || n.Obj().Pkg() == nil {
		return "", "", false
	}
	return n.Obj().Pkg().Path(), n.Obj().Name(), true
}

// isConversion reports whether call is a type conversion, returning the
// target type.
func isConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// isFloat reports whether t's underlying type is a floating-point type
// (including untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
