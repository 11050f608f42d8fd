//go:build !race

package trace_test

const raceEnabled = false
