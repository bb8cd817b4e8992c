package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotPaths are the packages whose //hot-marked functions form the
// simulator's dispatch-rate-critical path: the event engine, the fluid
// integrator, and the packet fabric.
var hotPaths = []string{
	"mltcp/internal/sim",
	"mltcp/internal/fluid",
	"mltcp/internal/netsim",
}

// HotCall enforces the allocation-free discipline for //hot functions,
// across call boundaries. The leaf check is syntactic per call site,
// deliberately stricter than the escape analyzer: closure literals
// (each evaluation heap-allocates the captured environment) and value-
// to-interface conversions (boxing copies the value to the heap).
// Pointer, map, channel, and func values convert without allocating, so
// passing &handler into an interface parameter stays clean. On top,
// a call into a module function that carries FactAllocates — anywhere
// in the repo, any number of hops away — is flagged with the
// allocation's witness chain. A //lint:allow at the allocating leaf
// kills the fact and therefore every transitive finding, which keeps
// the audit at one justified marker per cold site.
var HotCall = &Analyzer{
	Name: "hotcall",
	Doc: `keep //hot functions allocation-free, transitively

Functions whose doc comment contains a standalone //hot line are on the
per-event dispatch path. Closure literals and non-pointer value-to-
interface conversions inside them allocate on every call; hoist captured
state into a pre-bound handler struct, or pass pointers. Additionally,
calling a module function whose fact store entry says it allocates per
call (directly or through its own callees) is flagged, with the witness
chain pointing at the root allocation. Justify genuinely cold sites
with //lint:allow hotcall at the allocating line — the suppression
removes the fact, so callers are cleared too.`,
	AppliesTo: isHotPathPackage,
	Run:       runHotCall,
}

func runHotCall(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotMarked(fd) {
				continue
			}
			reportAllocSites(pass, fd)

			selfKey := ""
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				selfKey = FuncKey(fn)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					// The literal is already a leaf finding; its body
					// runs as a different function.
					return false
				case *ast.CallExpr:
					f := funcObj(pass.TypesInfo, n)
					if f == nil || !moduleFunc(f) || FuncKey(f) == selfKey {
						return true
					}
					fact := pass.Facts.Lookup(f)
					if fact.Flags.Has(FactAllocates) {
						pass.Reportf(n.Pos(),
							"//hot function %s calls %s, which allocates per call (%s); make the callee allocation-free or lift the call off the hot path",
							fd.Name.Name, shortFuncName(f), fact.AllocWhy)
					}
				}
				return true
			})
		}
	}
	return nil
}

func isHotPathPackage(path string) bool {
	for _, p := range hotPaths {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// hotMarked reports whether the function's doc comment contains a
// standalone //hot line (the convention: last line of the doc block).
// gofmt rewrites a bare //hot doc line to "// hot", so both spellings
// mark the function; prose that merely starts with "hot" does not.
func hotMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if t := strings.TrimSpace(c.Text); t == "//hot" || t == "// hot" {
			return true
		}
	}
	return false
}

// reportAllocSites emits the leaf allocation findings for one //hot
// function.
func reportAllocSites(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	forEachAllocSite(pass.TypesInfo, fd.Body, func(s allocSite) {
		switch s.kind {
		case allocClosure:
			pass.Reportf(s.pos,
				"closure literal in //hot function %s allocates its capture environment per call; hoist state into a pre-bound handler struct", name)
		case allocConvert:
			pass.Reportf(s.pos,
				"%s in //hot function %s boxes the value per call", s.detail, name)
		case allocArg:
			pass.Reportf(s.pos,
				"%s passed to interface parameter in //hot function %s boxes per call; pass a pointer or pre-bind the handler", s.detail, name)
		}
	})
}

// An allocSite is one per-call allocation the discipline bans: a closure
// literal, an explicit conversion to an interface, or a value argument
// boxed into an interface parameter.
type allocKind int

const (
	allocClosure allocKind = iota
	allocConvert
	allocArg
)

type allocSite struct {
	pos    token.Pos
	kind   allocKind
	detail string // type description for the box kinds, "" for closures
}

func (s allocSite) describe(fset *token.FileSet) string {
	p := fset.Position(s.pos)
	loc := fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
	if s.kind == allocClosure {
		return "closure literal at " + loc
	}
	return "interface boxing at " + loc
}

// forEachAllocSite enumerates the banned allocation shapes in body, in
// source order. It does not descend into nested function literals: the
// literal itself is the allocation, and its body runs as a different
// function.
func forEachAllocSite(info *types.Info, body ast.Node, report func(allocSite)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(allocSite{pos: n.Pos(), kind: allocClosure})
			return false
		case *ast.CallExpr:
			callAllocSites(info, n, report)
		}
		return true
	})
}

// callAllocSites flags interface boxing at a call: an explicit
// conversion to an interface type, or a concrete non-pointer argument
// passed to an interface-typed parameter (including the variadic ...any
// of the fmt functions).
func callAllocSites(info *types.Info, call *ast.CallExpr, report func(allocSite)) {
	if target, ok := isConversion(info, call); ok {
		if !types.IsInterface(target.Underlying()) {
			return
		}
		if tv, ok := info.Types[call.Args[0]]; ok && boxes(tv.Type) && tv.Value == nil {
			report(allocSite{
				pos:    call.Pos(),
				kind:   allocConvert,
				detail: fmt.Sprintf("conversion of %s to interface %s", tv.Type, target),
			})
		}
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return // builtins (append, panic) have no signature here
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				return // a []T passed whole: no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		atv, ok := info.Types[arg]
		if !ok || !boxes(atv.Type) {
			continue
		}
		if atv.Value != nil {
			continue // constants box into static interface data, no allocation
		}
		report(allocSite{
			pos:    arg.Pos(),
			kind:   allocArg,
			detail: fmt.Sprintf("value of type %s", atv.Type),
		})
	}
}

// boxes reports whether converting a value of type t to an interface
// allocates. Interface values hold one word directly, so pointer-shaped
// types (pointers, maps, chans, funcs) and nil convert for free;
// everything else is copied to the heap.
func boxes(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	}
	return true
}
