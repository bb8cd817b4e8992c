//go:build race

package experiments

// raceEnabled reports a -race build, where a packet-level run is over
// 10× slower.
const raceEnabled = true
