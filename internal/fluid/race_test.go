//go:build race

package fluid

// raceEnabled reports a -race build: the detector's shadow allocations
// make allocation counts incomparable, so they are not checked there.
const raceEnabled = true
