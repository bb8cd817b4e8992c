//go:build !race

package telemetry

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
