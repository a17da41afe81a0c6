//go:build race

package serve

// raceEnabled reports whether the race detector instruments this test
// binary. Its per-access checks slow byte loops about twelvefold, so
// wall-clock bounds are not checked under it.
const raceEnabled = true
