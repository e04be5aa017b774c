//go:build !race

package sparql

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
