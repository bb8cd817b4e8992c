// Fixture for the hotcall analyzer, type-checked under an impersonated
// mltcp/internal/sim path (hot-path scope) and importing the helper
// fixture package so cross-package facts are exercised.
package fixture

import "mltcp/internal/lint/helper"

func localSink(x any) {}

// localAlloc allocates in this package: in-package facts must propagate
// without any serialization round-trip.
func localAlloc(v int) { localSink(v) }

// localDeep reaches localAlloc through one more in-package hop.
func localDeep(v int) { localAlloc(v) }

// hot
func hotLeaf(v int) {
	f := func() int { return v } // want "closure literal in //hot function hotLeaf"
	_ = f
	localSink(v) // want "value of type int passed to interface parameter in //hot function hotLeaf"
}

// hot
func hotCrossPackage(v int) {
	helper.Boxy(v)    // want "//hot function hotCrossPackage calls helper.Boxy, which allocates per call"
	helper.Wrapped(v) // want "//hot function hotCrossPackage calls helper.Wrapped, which allocates per call"
	_ = helper.Clean(v)
	helper.Justified(v) // suppression at the leaf killed the fact: clean
	if v < 0 {
		helper.Explode(v) // panic helper: exempt, clean
	}
}

// hot
func hotInPackage(v int) {
	localAlloc(v) // want "//hot function hotInPackage calls fixture.localAlloc, which allocates per call"
	localDeep(v)  // want "//hot function hotInPackage calls fixture.localDeep, which allocates per call"
}

// hot
func hotJustifiedCall(v int) {
	helper.Boxy(v) //lint:allow hotcall fixture: justified cold call on a hot path
}

// coldCaller is unmarked: the same calls pass untouched.
func coldCaller(v int) {
	helper.Boxy(v)
	localAlloc(v)
	_ = func() int { return v }
}
