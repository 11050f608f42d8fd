package particle

import "cpx/internal/fault"

// Walk visits the component's recoverable state (fault.State): the
// local droplet population, the global step counter driving
// deterministic re-injection, the coupled gas gain, the balancer's
// mutable state (the repartition tree; nothing for the stateless
// strategies) and the load-balancing accounting. No RNG state exists —
// every stochastic term is hash-derived — so this set resumes a run bit
// for bit. RankLoad.Droplets is left out: only Load's copy sets it.
func (s *System) Walk(st *fault.State) {
	for _, xs := range []*[]float64{&s.x, &s.y, &s.z, &s.vx, &s.vy, &s.vz, &s.rad} {
		st.Floats(xs)
	}
	st.Int(&s.step)
	st.Float(&s.gasGain)
	s.bal.walk(st)
	st.Int(&s.load.Moved)
	st.Int(&s.load.Stolen)
	st.Int(&s.load.Granted)
	st.Int(&s.load.Repartitions)
	st.Float(&s.load.LastImbalance)
	st.Float(&s.load.PeakImbalance)
}

// CheckpointBytes is the true (full-scale) state size a rank writes to
// stable storage: its share of the true droplet population, seven
// doubles per droplet.
func (s *System) CheckpointBytes() int {
	return int(float64(len(s.x))*s.partScale) * dropletFields * 8
}
