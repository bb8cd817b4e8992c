//go:build race

package backend_test

// raceEnabled reports a -race build: the detector's shadow allocations
// shift heap-object counts by a few percent, so allocs/op is not
// compared there.
const raceEnabled = true
