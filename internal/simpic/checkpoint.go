package simpic

import "cpx/internal/fault"

// Checkpoint is a deep copy of the solver's mutable state: particle
// phase space, the step counter driving field sub-cycling and
// diagnostics cadence, the cached field solution, and the absorbed-count
// diagnostic. Beyond these the field solver holds only immutable
// decomposition state and set-up factors, every scratch vector is
// rewritten before it is read, and the RNG is consumed entirely during
// loading, so this set resumes the run bit for bit.
type Checkpoint struct {
	Px, Pv           []float64
	StepNum          int
	CachePhi         []float64
	CacheGL, CacheGR float64
	Absorbed         int64
}

// Checkpoint captures the current state.
func (s *Sim) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Px:       append([]float64(nil), s.px...),
		Pv:       append([]float64(nil), s.pv...),
		StepNum:  s.stepNum,
		CachePhi: append([]float64(nil), s.cachePhi...),
		CacheGL:  s.cacheGL,
		CacheGR:  s.cacheGR,
		Absorbed: s.Absorbed,
	}
}

// Restore overwrites the solver state with a checkpoint taken from an
// identically configured instance.
func (s *Sim) Restore(ck *Checkpoint) {
	s.px = append(s.px[:0], ck.Px...)
	s.pv = append(s.pv[:0], ck.Pv...)
	s.stepNum = ck.StepNum
	if ck.CachePhi == nil {
		s.cachePhi = nil
	} else {
		s.cachePhi = append([]float64(nil), ck.CachePhi...)
	}
	s.cacheGL, s.cacheGR = ck.CacheGL, ck.CacheGR
	s.Absorbed = ck.Absorbed
}

// CheckpointBytes is the true (full-scale) state size a rank writes to
// stable storage: the represented particles (position + velocity) plus
// the rank's share of the field.
func (s *Sim) CheckpointBytes() int {
	return int(s.trueParts)*16 + s.trueCells*8
}

// StateDigest hashes the exact bit patterns of the mutable state.
func (s *Sim) StateDigest() uint64 {
	d := fault.NewDigest()
	d.Floats(s.px)
	d.Floats(s.pv)
	d.Int(s.stepNum)
	d.Floats(s.cachePhi)
	d.Float(s.cacheGL)
	d.Float(s.cacheGR)
	d.Int(int(s.Absorbed))
	return d.Sum64()
}
