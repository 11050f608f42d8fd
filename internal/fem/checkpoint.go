package fem

import "cpx/internal/fault"

// Walk visits the solver's recoverable state (fault.State): owned
// temperatures and heat loads, and the last solve's iteration count.
// The system matrix, AMG hierarchy and lumped masses are assembled
// deterministically from the configuration and never change, so
// restoring these resumes the run bit for bit.
func (s *Solver) Walk(st *fault.State) {
	st.Floats(&s.T)
	st.Floats(&s.Q)
	st.Int(&s.LastIterations)
}

// CheckpointBytes is the state size a rank writes to stable storage
// (the FEM shell runs unscaled, so simulated size is true size).
func (s *Solver) CheckpointBytes() int {
	return (len(s.T) + len(s.Q)) * 8
}
