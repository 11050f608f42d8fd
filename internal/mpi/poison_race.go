//go:build race

package mpi

// poisonReleased arms the use-after-release oracle of f64Arena.release
// in race-detector builds (`make race`, `make test-race-short`).
const poisonReleased = true
