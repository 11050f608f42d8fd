package main

// Example pins the three-physics run's per-instance virtual times and
// coupling share.
func Example() {
	main()
	// Output:
	// coupled CFD + combustion + structural run: 16 ranks
	//
	// instance            time(s)   compute(s)
	// compressor           0.1154       0.1099
	// combustor            0.1157       0.0014
	// casing               0.1157       0.0277
	//
	// simulated run-time 0.1157 s over 12 density steps
	// coupling share: 4.81%
	//
	// The casing FEM assembles real bilinear-quad stiffness matrices and
	// advances backward-Euler conduction with AMG-preconditioned CG each
	// exchange period, absorbing convective heat loads from the combustor.
}
