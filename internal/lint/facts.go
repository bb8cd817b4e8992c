// Function facts: the interprocedural layer of the suite. A fact is a
// small statement about one function — "allocates per call", "reads
// the wall clock", "is an RNG source", "spawns a goroutine" — computed
// bottom-up over the call graph (Summarize) and carried between
// packages in one in-memory store. Downstream analyzers (hotcall,
// seedflow, concguard, and the interprocedural half of simdeterminism)
// consume facts instead of re-reading callee bodies, which is what lets
// a per-package analysis see across package boundaries.
//
// Summaries are deterministic: the same package summarized any number
// of times yields an equal store, so repeated runs report the same
// findings with the same witnesses.

package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// FactSet is a bit set of per-function facts.
type FactSet uint8

const (
	// FactAllocates: the function body contains an unsuppressed
	// closure literal or value-to-interface boxing site (the two
	// allocation shapes the hot-path discipline bans), or it calls a
	// module function that does. Functions that panic on every path
	// are exempt — panic formatting is cold by construction.
	FactAllocates FactSet = 1 << iota
	// FactUsesWallClock: the function calls time.Now/time.Since
	// without a justified suppression, directly or transitively.
	FactUsesWallClock
	// FactRNGSource: the function returns an RNG value or constructs
	// one from a caller-supplied seed parameter (see SeedParams).
	FactRNGSource
	// FactSpawnsGoroutine: the function contains a go statement,
	// directly or transitively.
	FactSpawnsGoroutine
	// FactDerivesSeed: the function's integer result is always rooted
	// in sim.DeriveSeed (or an RNG stream's output), so it may be
	// passed wherever a derived seed is required.
	FactDerivesSeed
)

// Has reports whether every bit of f is set in s.
func (s FactSet) Has(f FactSet) bool { return s&f == f }

var factNames = []struct {
	bit  FactSet
	name string
}{
	{FactAllocates, "allocates"},
	{FactUsesWallClock, "usesWallClock"},
	{FactRNGSource, "rngSource"},
	{FactSpawnsGoroutine, "spawnsGoroutine"},
	{FactDerivesSeed, "derivesSeed"},
}

func (s FactSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, fn := range factNames {
		if s.Has(fn.bit) {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, "|")
}

// A FuncFact is the full fact record for one function.
type FuncFact struct {
	Flags FactSet
	// SeedParams are the (0-based) parameter indices that flow into an
	// RNG seed inside the function: call sites must pass derived seeds
	// at these positions. Sorted, deduplicated.
	SeedParams []int
	// AllocWhy, ClockWhy, SpawnWhy are one-line witnesses for the
	// corresponding flags: either a site ("closure literal at
	// fluid.go:42") or the first link of the call chain ("calls
	// fluid.helper (closure literal at alloc.go:17)"). Deterministic:
	// the earliest site by source position wins.
	AllocWhy string
	ClockWhy string
	SpawnWhy string
}

// IsZero reports whether the record carries no information (and so is
// omitted from the store).
func (f FuncFact) IsZero() bool {
	return f.Flags == 0 && len(f.SeedParams) == 0
}

// Equal reports field-wise equality; the fixed-point loop in Summarize
// uses it to detect convergence.
func (f FuncFact) Equal(g FuncFact) bool {
	if f.Flags != g.Flags || f.AllocWhy != g.AllocWhy ||
		f.ClockWhy != g.ClockWhy || f.SpawnWhy != g.SpawnWhy ||
		len(f.SeedParams) != len(g.SeedParams) {
		return false
	}
	for i, p := range f.SeedParams {
		if g.SeedParams[i] != p {
			return false
		}
	}
	return true
}

// FuncKey returns the stable store key for a function: the origin
// (uninstantiated) object's full package-qualified name, e.g.
// "mltcp/internal/sim.DeriveSeed" or "(*mltcp/internal/sim.Engine).At".
func FuncKey(f *types.Func) string {
	return f.Origin().FullName()
}

// moduleFunc reports whether f is a function of this module (the only
// functions facts are recorded for; everything else — stdlib, interface
// methods, func values — is assumed clean).
func moduleFunc(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	return path == "mltcp" || strings.HasPrefix(path, "mltcp/")
}

// shortFuncName renders f compactly for diagnostics: package name,
// receiver type for methods, function name.
func shortFuncName(f *types.Func) string {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, name, ok := namedType(sig.Recv().Type()); ok {
			return fmt.Sprintf("%s.%s.%s", f.Pkg().Name(), name, f.Name())
		}
	}
	return fmt.Sprintf("%s.%s", f.Pkg().Name(), f.Name())
}

// A FactStore holds the facts known to one analysis run: the current
// package's plus everything summarized from its dependencies.
type FactStore struct {
	funcs map[string]FuncFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[string]FuncFact)}
}

// Get returns the fact record for key, reporting whether one exists.
func (s *FactStore) Get(key string) (FuncFact, bool) {
	if s == nil {
		return FuncFact{}, false
	}
	f, ok := s.funcs[key]
	return f, ok
}

// Lookup returns the fact record for a function object, zero when the
// store holds none (including on a nil store, so analyzers need no
// guards).
func (s *FactStore) Lookup(f *types.Func) FuncFact {
	if s == nil || f == nil {
		return FuncFact{}
	}
	return s.funcs[FuncKey(f)]
}

// Set records a fact, sanitizing witness strings so they stay on one
// line. Zero records are dropped.
func (s *FactStore) Set(key string, f FuncFact) {
	if f.IsZero() {
		delete(s.funcs, key)
		return
	}
	f.AllocWhy = sanitizeWhy(f.AllocWhy)
	f.ClockWhy = sanitizeWhy(f.ClockWhy)
	f.SpawnWhy = sanitizeWhy(f.SpawnWhy)
	sort.Ints(f.SeedParams)
	s.funcs[key] = f
}

// sanitizeWhy keeps witness strings single-line: every diagnostic
// that cites a fact threads its witness into one output line.
func sanitizeWhy(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '\t', '\n', '\r':
			return ' '
		}
		return r
	}, s)
}
