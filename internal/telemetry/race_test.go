//go:build race

package telemetry

// raceEnabled reports a -race build: the detector allocates beside the
// program, so byte counts are not compared there.
const raceEnabled = true
