//go:build !race

package fluid

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
