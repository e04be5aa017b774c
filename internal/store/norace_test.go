//go:build !race

package store

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
