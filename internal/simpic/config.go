package simpic

import "fmt"

// Fixed physics of every test case: a unit domain, a thermal velocity
// of 0.02 domain-lengths per unit time, and a time-step of a quarter of
// the cell-crossing time.
const (
	length  float64 = 1.0
	vTherm  float64 = 0.02
	dtScale float64 = 0.25
)

// PressureStepsEquivalent is how many production pressure-solver
// time-steps a configuration's full Steps stand in for: the Fig. 3
// equivalences were measured against 10-step pressure runs. Coupled
// drivers use it to size the SIMPIC work per coupling exchange.
const PressureStepsEquivalent int = 10

// Config describes a SIMPIC test case.
type Config struct {
	Cells            int   // global grid cells
	ParticlesPerCell int   // initial loading
	Steps            int   // time-steps for the full run
	Seed             int64 // particle loading seed

	// ParticleWeight scales the charged per-particle work (default 1).
	// The paper hand-picks its test-case parameters so SIMPIC's run-time
	// matches the target pressure solver on ARCHER2; the weight is the
	// equivalent calibration knob for the virtual machine (heavier
	// macro-particles).
	ParticleWeight float64

	// FieldEvery sub-cycles the electrostatic field solve: the Poisson
	// system is solved every FieldEvery steps and the cached field pushes
	// the particles in between (default 1 = every step). The STC
	// configurations use 2, a standard PIC economy when the field evolves
	// slowly relative to the particle motion.
	FieldEvery int
}

// StepsPerPressureStep returns the SIMPIC micro-steps representing one
// pressure-solver time-step under PressureStepsEquivalent.
func (c Config) StepsPerPressureStep() int {
	n := c.Steps / PressureStepsEquivalent
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.ParticleWeight == 0 {
		c.ParticleWeight = 1
	}
	if c.FieldEvery == 0 {
		c.FieldEvery = 1
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cells < 2 {
		return fmt.Errorf("simpic: need at least 2 cells, got %d", c.Cells)
	}
	if c.ParticlesPerCell < 1 {
		return fmt.Errorf("simpic: need at least 1 particle per cell, got %d", c.ParticlesPerCell)
	}
	if c.Steps < 1 {
		return fmt.Errorf("simpic: need at least 1 step, got %d", c.Steps)
	}
	return nil
}

// BaseSTC returns the Base SIMPIC test case matched to a production
// pressure-solver mesh size, the hand-picked equivalences of Fig. 3:
//
//	28M cells  -> 512,000 cells, 100 particles/cell, 50,000 steps
//	84M cells  -> 512,000 cells, 300 particles/cell, 50,000 steps
//	380M cells -> 512,000 cells, 1,800 particles/cell, 50,000 steps
//
// Other mesh sizes interpolate the particle loading linearly in mesh
// cells, pinned to the published anchors.
func BaseSTC(meshCells int64) Config {
	ppc := int(float64(meshCells) * 100.0 / 28e6)
	switch {
	case meshCells == 28_000_000:
		ppc = 100
	case meshCells == 84_000_000:
		ppc = 300
	case meshCells == 380_000_000:
		ppc = 1800
	}
	if ppc < 1 {
		ppc = 1
	}
	// Per-case particle weight, the hand-tuned part of the equivalence
	// (the paper hand-picks the configurations per target case; see
	// DESIGN.md par.6 on calibration). The anchors are calibrated against
	// the measured pressure-solver proxy: 1.30 @ 100 ppc, 1.60 @ 300 ppc,
	// and 1.11 @ 1,800 ppc (the paper's 380M anchor uses disproportionately
	// many particles: 18x the 28M loading for 13.6x the mesh).
	var weight float64
	switch {
	case ppc <= 100:
		weight = 1.30
	case ppc <= 300:
		weight = 1.30 + 0.30*(float64(ppc)-100)/200
	case ppc <= 1800:
		weight = 1.60 - 0.49*(float64(ppc)-300)/1500
	default:
		weight = 1.11
	}
	return Config{Cells: 512_000, ParticlesPerCell: ppc, Steps: 50_000,
		ParticleWeight: weight, FieldEvery: 2}
}

// OptimizedSTC returns the synthetic configuration matching the
// *optimised* pressure solver of Section IV-C: 1.18M cells, 60,000
// particles per cell, 450 time-steps.
func OptimizedSTC() Config {
	// The particle weight maps this configuration's enormous macro-particle
	// population (7.1e10) onto the optimised pressure solver's run-time on
	// the virtual machine, as the paper's authors tuned theirs to ARCHER2.
	return Config{Cells: 1_180_000, ParticlesPerCell: 60_000, Steps: 450,
		FieldEvery: 2, ParticleWeight: 0.058}
}

// ScaleOpts bound the in-memory working set of a run; costs are always
// charged for the full Config. The zero value runs the configuration
// exactly (no capping) — used by the physics tests.
type ScaleOpts struct {
	// MaxCellsPerRank caps the allocated grid slice per rank.
	MaxCellsPerRank int
	// MaxParticlesPerRank caps the allocated particles per rank.
	MaxParticlesPerRank int
	// SampleSteps runs only this many real steps, scaling the run to
	// Config.Steps (time-steps are statistically homogeneous).
	SampleSteps int
}

// Production returns the capping used for large harness runs (sized so
// 30,000+-rank standalone sweeps stay within a few GB of host memory).
func Production() ScaleOpts {
	return ScaleOpts{MaxCellsPerRank: 4096, MaxParticlesPerRank: 4096, SampleSteps: 4}
}
