// Package cpx is a Go reproduction of the CPX mini-app coupling study:
// "Predictive Analysis of Code Optimisations on Large-Scale Coupled
// CFD-Combustion Simulations using the CPX Mini-App" (Powell & Mudalige).
//
// It provides, as a single library:
//
//   - The coupled mini-app simulation: MG-CFD (density-solver proxy) and
//     SIMPIC (pressure-solver performance proxy) instances connected by
//     CPX coupling units with sliding-plane and steady-state interfaces
//     (Simulation, Instance, CouplingUnit).
//   - The virtual-time execution substrate: an in-process MPI-like
//     runtime over a parameterised machine model, so "runs" of up to the
//     paper's 40,000 ranks execute on one host with faithful
//     communication patterns (Machine, ARCHER2).
//   - The empirical performance model of Section V: parallel-efficiency
//     curve fitting and the greedy rank-allocation Algorithm 1
//     (FitCurve, Allocate).
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation (Experiments, cmd/cpxbench).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record. The examples/ directory holds runnable
// walkthroughs of this API.
package cpx

import (
	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/fault"
	"cpx/internal/fem"
	"cpx/internal/harness"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/perfmodel"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
	"cpx/internal/trace"
)

// ---- Machine models ----------------------------------------------------------

// Machine describes the modelled HPC system (nodes, rates, network).
type Machine = cluster.Machine

// Work describes machine-independent computation (flops, bytes streamed).
type Work = cluster.Work

// ARCHER2 returns the model of the HPE-Cray EX system used in the paper.
func ARCHER2() *Machine { return cluster.ARCHER2() }

// SmallCluster returns a modest commodity-cluster model for examples and
// tests.
func SmallCluster() *Machine { return cluster.SmallCluster() }

// Cirrus32 returns a 32-cores/node system model, the class the production
// pressure solver was originally profiled on (Section II-B).
func Cirrus32() *Machine { return cluster.Cirrus32() }

// ---- Coupled simulations -------------------------------------------------------

// Simulation is a coupled mini-app configuration: solver instances wired
// together by coupling units, run on the virtual-time substrate.
type Simulation = coupler.Simulation

// Instance is one solver instance of a coupled simulation.
type Instance = coupler.InstanceSpec

// CouplingUnit is one CPX coupling unit connecting two instances.
type CouplingUnit = coupler.UnitSpec

// Report summarises a coupled run (per-instance and per-unit times).
type Report = coupler.Report

// CoupledScale bounds the in-memory working sets of a coupled run.
type CoupledScale = coupler.Scale

// Solver kinds for Instance.Kind.
const (
	MGCFD      = coupler.KindMGCFD  // density-solver proxy (compressor/turbine rows)
	SIMPIC     = coupler.KindSIMPIC // pressure-solver performance proxy (combustor)
	FEMThermal = coupler.KindFEM    // casing thermal FEM (structural coupling)
)

// Interface kinds for CouplingUnit.Kind.
const (
	SlidingPlane = coupler.SlidingPlane // rotor/stator: remap every exchange
	SteadyState  = coupler.SteadyState  // density-pressure: map once
)

// SearchKind selects a coupling unit's donor-search strategy.
type SearchKind = coupler.Search

// Donor-search strategies for CouplingUnit.Search.
const (
	BruteForceSearch = coupler.BruteForce
	TreeSearch       = coupler.Tree
	PrefetchSearch   = coupler.TreePrefetch
)

// ProductionScale returns the working-set capping used for large runs.
func ProductionScale() CoupledScale { return coupler.ProductionScale() }

// RunConfig controls a virtual-time run (machine model, profiling,
// host-time watchdog).
type RunConfig = mpi.Config

// ---- Fault injection and resilience --------------------------------------------

// FaultPlan is a deterministic schedule of rank crashes, straggler nodes
// and degraded links, expressed in virtual time (DESIGN.md §7).
type FaultPlan = fault.Plan

// FaultSpec parameterises a randomly drawn (but seeded, reproducible)
// fault plan: ranks, horizon, MTBF.
type FaultSpec = fault.Spec

// NewFaultPlan draws a deterministic fault plan from a spec; the same
// spec always yields the same plan.
func NewFaultPlan(spec FaultSpec) (*FaultPlan, error) { return fault.NewPlan(spec) }

// ResilienceOptions configures coordinated checkpoint/restart for a
// coupled run: the fault plan, the checkpoint interval in density steps,
// and the per-restart relaunch cost.
type ResilienceOptions = coupler.ResilienceOptions

// ResilienceReport extends Report with the resilience accounting:
// attempts, overhead split into rework/detection/restart, and the
// crashes survived.
type ResilienceReport = coupler.ResilienceReport

// YoungInterval returns Young's first-order optimal checkpoint interval
// sqrt(2 * checkpointCost * MTBF) in virtual seconds.
func YoungInterval(checkpointCost, mtbf float64) float64 {
	return fault.YoungInterval(checkpointCost, mtbf)
}

// ---- Mini-app configurations ---------------------------------------------------

// SimpicConfig configures a SIMPIC instance.
type SimpicConfig = simpic.Config

// MGCFDConfig configures an MG-CFD instance.
type MGCFDConfig = mgcfd.Config

// PressureConfig configures the pressure-solver proxy.
type PressureConfig = pressure.Config

// FEMConfig configures the casing thermal FEM solver.
type FEMConfig = fem.Config

// Pressure-solver variants.
const (
	PressureBase      = pressure.Base
	PressureOptimized = pressure.Optimized
)

// BaseSTC returns the SIMPIC configuration matched to a production
// pressure-solver mesh size (Fig. 3).
func BaseSTC(meshCells int64) SimpicConfig { return simpic.BaseSTC(meshCells) }

// OptimizedSTC returns the SIMPIC configuration matched to the optimised
// pressure solver of Section IV-C.
func OptimizedSTC() SimpicConfig { return simpic.OptimizedSTC() }

// ---- Performance model ---------------------------------------------------------

// Sample is one standalone benchmark point for curve fitting.
type Sample = perfmodel.Sample

// Curve is a fitted run-time/parallel-efficiency model.
type Curve = perfmodel.Curve

// Component is one entry of the rank-allocation problem.
type Component = perfmodel.Component

// Allocation is the result of the greedy distribution (Algorithm 1).
type Allocation = perfmodel.Allocation

// FitCurve fits a parallel-efficiency curve to benchmark samples.
func FitCurve(samples []Sample) (*Curve, error) { return perfmodel.FitCurve(samples) }

// Allocate distributes a core budget across components with Algorithm 1.
func Allocate(components []Component, budget int) (*Allocation, error) {
	return perfmodel.Allocate(components, budget)
}

// PredictSpeedup compares two allocations as T(base)/T(other).
func PredictSpeedup(base, other *Allocation) float64 {
	return perfmodel.PredictSpeedup(base, other)
}

// ---- Standalone mini-app runs --------------------------------------------------

// RunStats summarises a standalone virtual-time run.
type RunStats struct {
	// Elapsed is the simulated run-time (max rank clock), with sampled
	// steps scaled to the full configuration.
	Elapsed float64
	// Profile is the merged per-function profile (nil unless profiling
	// was enabled in the RunConfig).
	Profile *trace.Profile
}

// RunSimpic executes the SIMPIC mini-app standalone on `cores` virtual
// ranks. Working sets are capped per rank while costs are charged at the
// configured size, so paper-scale configurations run on one host.
func RunSimpic(cfg SimpicConfig, cores int, rc RunConfig) (*RunStats, error) {
	return runStats(harness.RunSimpic(cfg, cores, rc))
}

// RunMGCFD times the MG-CFD mini-app standalone on `cores` virtual ranks:
// every rank runs the mini-app's schedule of compute charges, halo
// messages and collectives at the configured size, without stepping the
// flow fields, which no clock reads.
func RunMGCFD(cfg MGCFDConfig, cores int, rc RunConfig) (*RunStats, error) {
	return runStats(harness.RunMGCFD(cfg, cores, rc))
}

// RunPressure executes the pressure-solver proxy standalone on `cores`
// virtual ranks. Enable rc.Profile for the Fig. 5-style per-function
// breakdown.
func RunPressure(cfg PressureConfig, cores int, rc RunConfig) (*RunStats, error) {
	return runStats(harness.RunPressure(cfg, cores, rc))
}

func runStats(elapsed float64, st *mpi.Stats, err error) (*RunStats, error) {
	if err != nil {
		return nil, err
	}
	return &RunStats{Elapsed: elapsed, Profile: st.MergedProfile()}, nil
}

// ---- Experiment harness --------------------------------------------------------

// Experiments configures the paper-reproduction harness; its methods
// regenerate the paper's tables and figures, one per entry of the
// experiment catalogue (`cpxbench -h` prints it).
type Experiments = harness.Options

// ExperimentTable is one reproduced figure or table.
type ExperimentTable = harness.Table

// DefaultExperiments runs the full paper sweeps on the ARCHER2 model.
func DefaultExperiments() Experiments { return harness.DefaultOptions() }
