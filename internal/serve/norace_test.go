//go:build !race

package serve

// raceEnabled reports whether the race detector instruments this test
// binary; see race_test.go.
const raceEnabled = false
