// Summarize computes the function facts for one package: the bottom-up
// half of the interprocedural tier. Drivers call it for every module
// package in dependency order — facts for a package's callees are
// already in the store by the time the package itself is summarized —
// and intra-package call chains, including recursion, converge
// through a fixed-point iteration.
//
// Facts respect //lint:allow: a suppressed leaf site (a justified
// boxing line, the sanctioned wall-clock read in internal/obs) produces
// no fact, so justification at the leaf stops propagation to every
// caller. That is the audit contract: one reviewed marker, not one per
// transitive call site.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// factSite is one local fact witness: a position plus its description.
type factSite struct {
	pos token.Pos
	why string
}

// factCall is one statically resolved call site.
type factCall struct {
	call *ast.CallExpr
	fn   *types.Func // nil when the callee is not a named function
}

// declState carries one function declaration through the fixed point.
type declState struct {
	fd     *ast.FuncDecl
	fn     *types.Func
	key    string
	panics bool

	localAllocs []allocSite
	localClock  []factSite
	localSpawn  []factSite
	calls       []factCall
	ctorSeeds   []ctorSeed
	returns     []ast.Expr // top-level single-value return expressions
	intResult   bool       // exactly one integer-kind result
	returnsRNG  bool       // some result is an RNG type

	fact FuncFact
}

// ctorSeed is one RNG-construction seed argument awaiting
// classification.
type ctorSeed struct {
	name string // constructor name for diagnostics, e.g. "sim.NewRNG"
	arg  ast.Expr
}

// suppressFn reports whether pos carries a //lint:allow for the named
// analyzer.
type suppressFn func(pos token.Pos, analyzer string) bool

// Summarize computes and stores facts for every function declared in
// the package (test files excluded — the invariants govern shipped
// simulation code). It must run after the package's dependencies have
// been summarized or their fact files merged into store.
func Summarize(fset *token.FileSet, files []*ast.File, info *types.Info, store *FactStore) {
	allowed, _ := suppressions(fset, files)
	supp := func(pos token.Pos, analyzer string) bool {
		p := fset.Position(pos)
		return allowed[allowKey{p.Filename, p.Line, analyzer}]
	}

	var decls []*declState
	byKey := make(map[string]*declState)
	for _, file := range files {
		if isTestFile(fset, file) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ds := &declState{fd: fd, fn: fn, key: FuncKey(fn), panics: alwaysPanics(info, fd.Body)}
			collectLocal(fset, info, supp, ds)
			decls = append(decls, ds)
			byKey[ds.key] = ds
		}
	}

	lookup := func(f *types.Func) FuncFact {
		if ds, ok := byKey[FuncKey(f)]; ok {
			return ds.fact
		}
		return store.Lookup(f)
	}

	// Fixed point over the package's functions: facts only ever gain
	// bits, so the loop terminates; the bound covers the longest
	// possible intra-package chain.
	for round := 0; round <= len(decls)+1; round++ {
		changed := false
		for _, ds := range decls {
			nf := computeFact(fset, info, supp, lookup, ds)
			if !nf.Equal(ds.fact) {
				ds.fact = nf
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, ds := range decls {
		store.Set(ds.key, ds.fact)
	}
}

// collectLocal gathers the round-invariant raw material for one
// declaration: allocation sites, wall-clock reads, go statements, call
// sites, RNG constructions, and return expressions.
func collectLocal(fset *token.FileSet, info *types.Info, supp suppressFn, ds *declState) {
	forEachAllocSite(info, ds.fd.Body, func(s allocSite) {
		if !supp(s.pos, HotCall.Name) {
			ds.localAllocs = append(ds.localAllocs, s)
		}
	})
	ast.Inspect(ds.fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ds.calls = append(ds.calls, factCall{call: n, fn: funcObj(info, n)})
			if name, ok := isPkgFunc(info, n, "time"); ok && (name == "Now" || name == "Since") {
				if !supp(n.Pos(), SimDeterminism.Name) {
					ds.localClock = append(ds.localClock, factSite{
						pos: n.Pos(),
						why: "time." + name + " at " + shortPos(fset, n.Pos()),
					})
				}
			}
			if name, seeds := rngConstruction(info, n); name != "" {
				for _, arg := range seeds {
					ds.ctorSeeds = append(ds.ctorSeeds, ctorSeed{name: name, arg: arg})
				}
			}
		case *ast.GoStmt:
			ds.localSpawn = append(ds.localSpawn, factSite{
				pos: n.Pos(),
				why: "go statement at " + shortPos(fset, n.Pos()),
			})
		}
		return true
	})

	sig := ds.fn.Type().(*types.Signature)
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isRNGType(results.At(i).Type()) {
			ds.returnsRNG = true
		}
	}
	if results.Len() == 1 {
		if b, ok := results.At(0).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			ds.intResult = true
			// Top-level returns only: returns inside nested literals
			// belong to the literal.
			ast.Inspect(ds.fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.ReturnStmt:
					if len(n.Results) == 1 {
						ds.returns = append(ds.returns, n.Results[0])
					} else {
						ds.intResult = false // bare return of a named result: opaque
					}
				}
				return true
			})
		}
	}
}

// computeFact evaluates one declaration against the current fact state.
// Witness selection is by earliest source position, so the result is
// deterministic regardless of map or package order.
func computeFact(fset *token.FileSet, info *types.Info, supp suppressFn,
	lookup func(*types.Func) FuncFact, ds *declState) FuncFact {

	var f FuncFact

	type candidate struct {
		pos token.Pos
		why string
	}
	pick := func(best *candidate, pos token.Pos, why string) *candidate {
		if best == nil || pos < best.pos {
			return &candidate{pos, why}
		}
		return best
	}

	var alloc, clock, spawn *candidate
	if !ds.panics {
		for _, s := range ds.localAllocs {
			alloc = pick(alloc, s.pos, s.describe(fset))
		}
	}
	for _, s := range ds.localClock {
		clock = pick(clock, s.pos, s.why)
	}
	for _, s := range ds.localSpawn {
		spawn = pick(spawn, s.pos, s.why)
	}

	sc := newSeedScope(info, lookup, ds.fd)
	seedParams := map[int]bool{}
	noteParams := func(c seedClass) {
		if c.ok {
			for _, p := range c.params {
				seedParams[p] = true
			}
		}
	}
	for _, cs := range ds.ctorSeeds {
		noteParams(sc.classify(cs.arg))
	}

	for _, c := range ds.calls {
		if c.fn == nil || !moduleFunc(c.fn) || FuncKey(c.fn) == ds.key {
			continue
		}
		cf := lookup(c.fn)
		if !ds.panics && cf.Flags.Has(FactAllocates) && !supp(c.call.Pos(), HotCall.Name) {
			alloc = pick(alloc, c.call.Pos(), transWhy(c.fn, cf.AllocWhy))
		}
		if cf.Flags.Has(FactUsesWallClock) && !supp(c.call.Pos(), SimDeterminism.Name) {
			clock = pick(clock, c.call.Pos(), transWhy(c.fn, cf.ClockWhy))
		}
		if cf.Flags.Has(FactSpawnsGoroutine) {
			spawn = pick(spawn, c.call.Pos(), transWhy(c.fn, cf.SpawnWhy))
		}
		for _, idx := range cf.SeedParams {
			if idx < len(c.call.Args) {
				noteParams(sc.classify(c.call.Args[idx]))
			}
		}
	}

	if alloc != nil {
		f.Flags |= FactAllocates
		f.AllocWhy = alloc.why
	}
	if clock != nil {
		f.Flags |= FactUsesWallClock
		f.ClockWhy = clock.why
	}
	if spawn != nil {
		f.Flags |= FactSpawnsGoroutine
		f.SpawnWhy = spawn.why
	}
	if len(seedParams) > 0 {
		for p := range seedParams {
			f.SeedParams = append(f.SeedParams, p)
		}
		sort.Ints(f.SeedParams)
	}
	if ds.returnsRNG || len(f.SeedParams) > 0 {
		f.Flags |= FactRNGSource
	}
	if ds.intResult && len(ds.returns) > 0 {
		all := true
		for _, e := range ds.returns {
			c := sc.classify(e)
			if !c.ok || len(c.params) > 0 {
				all = false
				break
			}
		}
		if all {
			f.Flags |= FactDerivesSeed
		}
	}
	return f
}

// transWhy renders a transitive witness: the callee plus its own
// witness, truncated so chains stay one readable line.
func transWhy(fn *types.Func, calleeWhy string) string {
	why := "calls " + shortFuncName(fn)
	if calleeWhy != "" {
		why += " (" + calleeWhy + ")"
	}
	if len(why) > 160 {
		why = why[:157] + "..."
	}
	return why
}

// alwaysPanics reports whether body panics on every path: no top-level
// return statements and a final statement that is a builtin panic call.
// Such functions are cold by construction (panic formatting), so their
// allocations do not become facts.
func alwaysPanics(info *types.Info, body *ast.BlockStmt) bool {
	n := len(body.List)
	if n == 0 {
		return false
	}
	hasReturn := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			hasReturn = true
		}
		return true
	})
	if hasReturn {
		return false
	}
	es, ok := body.List[n-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isTestFile reports whether the file is a _test.go file (excluded from
// fact computation: facts describe shipped code).
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}

// shortFile trims a path to its base name: fact witnesses must not
// embed machine-specific absolute paths (byte-identical files across
// checkouts) and stay readable in diagnostics.
func shortFile(name string) string {
	return filepath.Base(name)
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return shortFile(p.Filename) + ":" + strconv.Itoa(p.Line)
}
