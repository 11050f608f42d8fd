//go:build race

package trace_test

// raceEnabled reports a race-detector build, whose sync.Pool drops Puts
// at random, so allocation counts there are not the program's.
const raceEnabled = true
