package simpic

import "cpx/internal/fault"

// Walk visits the solver's recoverable state (fault.State): particle
// phase space, the step counter driving field sub-cycling and
// diagnostics cadence, the cached field solution (nil until the first
// solve, and a nil cache makes the next step solve) and the
// absorbed-count diagnostic. Beyond these the field solver holds only
// immutable decomposition state and set-up factors, every scratch
// vector is rewritten before it is read, and the RNG is consumed
// entirely during loading, so this set resumes the run bit for bit.
func (s *Sim) Walk(st *fault.State) {
	st.Floats(&s.px)
	st.Floats(&s.pv)
	st.Int(&s.stepNum)
	st.Floats(&s.cachePhi)
	st.Float(&s.cacheGL)
	st.Float(&s.cacheGR)
	st.Int64(&s.Absorbed)
}

// CheckpointBytes is the true (full-scale) state size a rank writes to
// stable storage: the represented particles (position + velocity) plus
// the rank's share of the field.
func (s *Sim) CheckpointBytes() int {
	return int(s.trueParts)*16 + s.trueCells*8
}
