// Package particle implements the Lagrangian droplet component: drag,
// evaporation and re-injection at the injector, ownership by a
// load-balancing strategy (static spatial split, work stealing or
// repartition-on-imbalance), and the per-step redistribution whose
// collective communication the paper names the pressure solver's worst
// bottleneck (96% of the spray routine's run-time is MPI at 2,048 cores,
// Fig. 5). It runs on ranks of its own as the coupled particle component
// (MiniCombust-style), and on the flow ranks as the Base pressure
// solver's synchronous spray (static strategy, Config.Grid set to the
// flow decomposition's grid).
//
// Invariant: every stochastic term is a hash of the seed, the droplet's
// state bits, its index and the step, never per-rank generator state, so
// a droplet's trajectory does not depend on the rank that owns it. The
// global droplet multiset is bitwise identical across strategies and
// grids; only the communication, and so the virtual time, differs.
// Oracles: TestStrategiesPreservePhysics (that multiset),
// TestSharedCloudMatchesEveryRankLoop (the run's one initial-cloud build
// against every rank evaluating every droplet),
// TestMigrateInPlaceMatchesRebuild and TestCheckpointRestore.
package particle
