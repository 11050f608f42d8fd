package simpic

import "cpx/internal/fault"

// Walk visits the solver's recoverable state (fault.State): particle
// phase space, the step counter driving field sub-cycling and
// diagnostics cadence, the cached field solution (nil until the first
// solve, and a nil cache makes the next step solve) and the
// absorbed-count diagnostic. Beyond these the field solver holds only
// immutable decomposition state and the segment factors the run shares
// read-only, its potential is either the cache itself or rewritten by
// the next solve before it is read, the charge window is rewritten
// before it is read, and the loading RNG is a local of New, so this set
// resumes the run bit for bit.
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
