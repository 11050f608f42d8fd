package mgcfd

import "cpx/internal/fault"

// Walk visits the solver's recoverable state (fault.State): the
// conserved variables of every multigrid level. Nothing else outlives a
// flux stage — its residuals live in the work vector's two-plane window
// and are applied to q before the stage returns — and dt and the
// decomposition are deterministic functions of the configuration, so
// restoring q alone resumes the run bit for bit. Idle ranks have no
// levels and visit nothing.
func (s *Sim) Walk(st *fault.State) {
	for _, lv := range s.levels {
		for v := range lv.q {
			st.Floats(&lv.q[v])
		}
	}
}

// CheckpointBytes is the true (full-scale) size of the state a rank
// writes to stable storage, used for the modelled checkpoint I/O cost:
// the per-level node counts scaled back up by the true/simulated work
// ratio.
func (s *Sim) CheckpointBytes() int {
	total := 0
	for _, lv := range s.levels {
		total += int(float64(lv.nodes)*lv.workMult) * NVAR * 8
	}
	return total
}
