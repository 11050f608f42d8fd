package analysis

import (
	"reflect"
	"testing"

	"cpx/internal/mpi"
)

// TestCollectiveMethodsExist keeps mpiuse's list in step with the
// runtime: every name it flags must be a method of *mpi.Comm, so the rule
// never checks for a call that cannot be written.
func TestCollectiveMethodsExist(t *testing.T) {
	comm := reflect.TypeOf((*mpi.Comm)(nil))
	for name := range collectiveMethods {
		if _, ok := comm.MethodByName(name); !ok {
			t.Errorf("collectiveMethods names %q, which *mpi.Comm does not have", name)
		}
	}
}
