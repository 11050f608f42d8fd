package particle

import "math"

// This file is the droplet physics model. Every stochastic term in it is
// a hash of droplet state, the population index and the step counter
// (see the package invariant).

// Per-droplet work constants: drag + evaporation + cell search per step.
const (
	DropletFlopsPerStep = 140.0
	DropletBytesPerStep = 160.0
)

// Tau is the droplet aerodynamic response time of the drag model.
const Tau = 0.05

// GasVelocity is the gas velocity model the droplets relax toward: an
// axial stream plus swirl. The axial component is returned unscaled;
// coupled runs modulate it by the absorbed flow field.
//
//perf:hotpath
func GasVelocity(y, z float64) (gx, gy, gz float64) {
	return 0.4, 0.2 * math.Sin(2*math.Pi*z), -0.2 * math.Sin(2*math.Pi*y)
}

// Reflect bounces a coordinate off the [0,1] lateral walls.
//
//perf:hotpath
func Reflect(pos, vel *float64) {
	if *pos < 0 {
		*pos = -*pos
		*vel = -*vel
	}
	if *pos > 1 {
		*pos = 2 - *pos
		*vel = -*vel
	}
}

// ConeSide returns the side length of the cone-ish injection box
// occupying the given fraction of the unit-domain volume.
func ConeSide(coneFraction float64) float64 { return math.Cbrt(coneFraction) }

// InjectorX/Y/Z is the probe position identifying the injector-owning
// rank (the rank that re-seeds evaporated droplets).
const (
	InjectorX = 0.01
	InjectorY = 0.5
	InjectorZ = 0.5
)

// splitmix64 is the 64-bit finalizer of the splitmix generator — the
// deterministic hash behind every stochastic term of the model.
//
//perf:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unit maps (seed, k) to a uniform value in [0, 1).
//
//perf:hotpath
func Unit(seed, k uint64) float64 {
	return float64(splitmix64(seed^splitmix64(k))>>11) / (1 << 53)
}

// EvapNoise returns the evaporation-rate modulation in [0, 2) for a
// droplet at the given position on the given step. It depends only on
// the droplet's exact state bits and the global step counter, so the
// value is identical no matter which rank owns the droplet.
//
//perf:hotpath
func EvapNoise(x, y, z float64, step int) float64 {
	h := math.Float64bits(x) ^ math.Float64bits(y)<<21 ^ math.Float64bits(z)<<42 ^ uint64(step)
	return 2 * (float64(splitmix64(h)>>11) / (1 << 53))
}

// Salt streams keep the model's independent hash draws uncorrelated.
const (
	saltInit uint64 = 0x243f6a8885a308d3 // initial cloud positions
	saltVel  uint64 = 0x13198a2e03707344 // initial velocities
	saltInj  uint64 = 0xa4093822299f31d0 // re-injection positions
)

// ModelSeed expands a configuration seed into the hash-stream seed
// feeding Unit/InitialState/InjectionState.
func ModelSeed(cfgSeed int64) uint64 {
	return splitmix64(uint64(cfgSeed) * 0x9e3779b97f4a7c15)
}

// InitialState returns droplet k's deterministic initial position and
// velocity inside the injection cone. It is a function of (seed, k)
// alone, so the initial cloud is a global agreement, not a per-rank
// sample — ownership can then be assigned by any strategy without
// changing the physics.
func InitialState(seed uint64, k uint64, side float64) (x, y, z, vx, vy, vz float64) {
	x = Unit(seed^saltInit, 3*k) * side
	y = 0.5 + (Unit(seed^saltInit, 3*k+1)-0.5)*side
	z = 0.5 + (Unit(seed^saltInit, 3*k+2)-0.5)*side
	vx = 0.3 + 0.1*(2*Unit(seed^saltVel, 3*k)-1)
	vy = 0.05 * (2*Unit(seed^saltVel, 3*k+1) - 1)
	vz = 0.05 * (2*Unit(seed^saltVel, 3*k+2) - 1)
	return
}

// InjectionState returns the deterministic respawn state of the j-th
// droplet re-seeded on a given step: near the injector at the x=0 face,
// inside the inner cone. Identical regardless of which rank hosts the
// injector, so re-seeding commutes with the balancing strategy.
func InjectionState(seed uint64, step int, j int, side float64) (x, y, z, vx, vy, vz float64) {
	k := uint64(step+1)<<24 + uint64(j)
	x = Unit(seed^saltInj, 3*k) * side * 0.2
	y = 0.5 + (Unit(seed^saltInj, 3*k+1)-0.5)*side*0.5
	z = 0.5 + (Unit(seed^saltInj, 3*k+2)-0.5)*side*0.5
	vx = 0.3 + 0.1*(2*Unit(seed^saltVel, 3*k)-1)
	vy = 0
	vz = 0
	return
}
