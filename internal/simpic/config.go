// Package simpic implements the SIMPIC mini-app: a 1-D electrostatic
// particle-in-cell code (Sandia National Laboratories [17], [35]) that the
// paper uses as a black-box *performance proxy* for the production
// combustion pressure solver. Each time-step deposits particle charge to
// the grid (cloud-in-cell), solves the 1-D Poisson equation for the
// potential with a substructured parallel tridiagonal solver, gathers the
// electric field back to the particles, and pushes them with a leapfrog
// integrator — the synchronous Lagrangian-Eulerian pattern of Fig. 2.
//
// The paper's test-case configurations (Fig. 3) far exceed what can be
// held in memory (up to 7e10 particles); ScaleOpts lets a run execute a
// representative per-rank slice and a sample of the time-steps while the
// virtual-time costs are charged for the full configuration.
package simpic

import "fmt"

// Config describes a SIMPIC test case.
type Config struct {
	Cells            int   // global grid cells
	ParticlesPerCell int   // initial loading
	Steps            int   // time-steps for the full run
	Seed             int64 // particle loading seed

	// Physics parameters; zero values take defaults (unit domain,
	// thermal velocity 0.02 domain-lengths per unit time, dt at a
	// quarter of the cell-crossing time).
	Length  float64
	VTherm  float64
	DtScale float64

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

	// PressureStepsEquivalent records how many production pressure-solver
	// time-steps this configuration's full Steps stand in for (the Fig. 3
	// equivalences were measured against 10-step pressure runs). Coupled
	// drivers use it to size the SIMPIC work per coupling exchange.
	// Default 10.
	PressureStepsEquivalent int
}

// StepsPerPressureStep returns the SIMPIC micro-steps representing one
// pressure-solver time-step under this configuration's equivalence.
func (c Config) StepsPerPressureStep() int {
	pse := c.PressureStepsEquivalent
	if pse == 0 {
		pse = 10
	}
	n := c.Steps / pse
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.Length == 0 {
		c.Length = 1.0
	}
	if c.VTherm == 0 {
		c.VTherm = 0.02
	}
	if c.DtScale == 0 {
		c.DtScale = 0.25
	}
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
