//go:build !race

package mpi

const poisonReleased = false
