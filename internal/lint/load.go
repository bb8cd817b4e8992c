// Package loading for the lint driver: enumerate packages with
// `go list -export`, then type-check from source against the compiler's
// export data. This reproduces the part of golang.org/x/tools/go/packages
// the suite needs, with no dependency outside the standard library and no
// network access — export data comes from the local build cache.

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// DepOnly marks a module package loaded only because a target
	// depends on it: it is summarized for facts but not analyzed.
	DepOnly bool
	// TypeErrors holds soft type-check failures. Analysis still runs on
	// whatever was resolved; the driver surfaces these separately.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// list runs `go list -export -deps` over patterns, returning the
// target packages plus every module package in their dependency closure
// (in go list's dependencies-first order, which lets the driver
// summarize facts before their consumers), and the export-data index
// for the whole closure.
func list(dir string, patterns []string) ([]listedPackage, map[string]string, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Export,Dir,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		if p.DepOnly && !modulePath(p.ImportPath) {
			continue // facts are only computed for module packages
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	return targets, exports, nil
}

// Exports returns the export-data index (import path → export file) for
// the packages matching patterns and their full dependency closure. It
// exists for fixture-based tests, which type-check detached source files
// against the repository's real dependencies.
func Exports(dir string, patterns ...string) (map[string]string, error) {
	_, exports, err := list(dir, patterns)
	return exports, err
}

// Load enumerates the packages matching patterns (resolved relative to
// dir, "" = current directory) and type-checks each non-dependency
// match. The returned FileSet is shared by all packages.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	targets, exports, err := list(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		pkg, info, softErrs, err := Check(fset, imp, t.ImportPath, files)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, &Package{
			Path:       t.ImportPath,
			Dir:        t.Dir,
			Files:      files,
			Types:      pkg,
			Info:       info,
			DepOnly:    t.DepOnly,
			TypeErrors: softErrs,
		})
	}
	return fset, pkgs, nil
}

// ExportImporter returns a go/types importer resolving import paths
// through compiler export data files (as produced by `go list -export`).
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// Check type-checks one package's parsed files under the given import
// path. Type errors are collected softly: analysis proceeds on whatever
// resolved, mirroring `go vet`'s tolerance of in-progress trees.
func Check(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, []error, error) {
	var soft []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { soft = append(soft, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if pkg == nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, soft, nil
}

// modulePath reports whether an import path belongs to this module.
func modulePath(path string) bool {
	return path == "mltcp" || strings.HasPrefix(path, "mltcp/")
}

// Run loads the packages matching patterns and applies the analyzers,
// returning every surviving diagnostic across all packages. Because
// Load yields the module dependency closure in dependencies-first
// order, each package is summarized into a shared in-memory fact store
// before any of its dependents is analyzed.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	fset, pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	store := NewFactStore()
	var all []Diagnostic
	for _, p := range pkgs {
		if modulePath(p.Path) {
			Summarize(fset, p.Files, p.Info, store)
		}
		if p.DepOnly {
			continue
		}
		diags, err := AnalyzeFacts(fset, p.Files, p.Types, p.Info, analyzers, store)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	return all, nil
}
