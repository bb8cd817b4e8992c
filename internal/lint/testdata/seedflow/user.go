// Fixture for the seedflow analyzer: consumes the fake sim and seedlib
// packages so the taint classifier and the cross-package fact
// obligations (SeedParams, FactSpawnsGoroutine, FactDerivesSeed) are
// all exercised through real imports.
package user

import (
	"mltcp/internal/lint/seedlib"
	"mltcp/internal/sim"
)

// Package-level RNG state: single-owner violation regardless of seed.
var shared = sim.NewRNGAt(1, 2) // want "RNG stored in package-level variable shared"

func derivedRoots(base uint64) {
	_ = sim.NewRNG(sim.DeriveSeed(base, 1)) // derivation call: clean
	_ = sim.NewRNGAt(base, 2)               // sanctioned combined helper: clean
	s := sim.DeriveSeed(base, 3)
	_ = sim.NewRNG(s)        // derived local: clean
	_ = sim.NewRNG(s ^ 0x9e) // derived operand in arithmetic: clean
	_ = sim.NewRNG(base)     // parameter: clean here, obligation on callers
	var runSeed uint64 = 42  // named seed declaration: a reviewable root
	_ = sim.NewRNG(runSeed)  // clean
	r := sim.NewRNGAt(base, 4)
	_ = sim.NewRNG(r.Uint64()) // stream output: clean
}

func badRoots() {
	_ = sim.NewRNG(42) // want "seed for sim.NewRNG is not derived"
	for i := 0; i < 3; i++ {
		_ = sim.NewRNG(uint64(i)) // want "seed for sim.NewRNG is not derived"
	}
	x := uint64(7)
	_ = sim.NewRNG(x) // want "seed for sim.NewRNG is not derived"
	//lint:allow seedflow fixture: justified raw seed
	_ = sim.NewRNG(9)
}

// localStream seeds from its parameter, so the obligation propagates to
// its callers through the in-package fact.
func localStream(s uint64) *sim.RNG { return sim.NewRNG(s) }

func obligations(base uint64) {
	_ = localStream(base)                // parameter: clean
	_ = localStream(11)                  // want "argument 0 of user.localStream seeds an RNG but is not derived"
	_ = seedlib.Stream(base)             // cross-package, derived: clean
	_ = seedlib.Stream(13)               // want "argument 0 of seedlib.Stream seeds an RNG but is not derived"
	_ = sim.NewRNG(seedlib.ChildSeed(5)) // FactDerivesSeed callee: clean
}

func escapes(base uint64) {
	r := sim.NewRNGAt(base, 1)
	go func() {
		_ = r.Uint64() // want "RNG r captured by goroutine closure"
	}()
	r2 := sim.NewRNGAt(base, 2)
	go consume(r2)                              // want "RNG passed into a goroutine"
	seedlib.SpawnWork(1, sim.NewRNGAt(base, 3)) // want "RNG passed to seedlib.SpawnWork, which spawns goroutines"
	r3 := sim.NewRNGAt(base, 4)
	_ = r3.Uint64() // same-scope use: clean
}

func consume(r *sim.RNG) { _ = r.Uint64() }
