//go:build !race

package endpoint

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
