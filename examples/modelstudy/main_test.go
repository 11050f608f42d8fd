package main

// Example pins the design-space sweep: the model alone, so the output is
// a pure function of the fitted curves and the budgets.
func Example() {
	main()
	// Output:
	//     budget       base rt(s)  optimized rt(s)    speedup   idle cores
	//       5000              674              191       3.5x            0
	//      10000              624              111       5.6x          224
	//      20000              624               86       7.3x        10224
	//      40000              624               83       7.5x        40641
	//      80000              624               83       7.5x       120641
	//
	// Past the base combustor's PE knee, extra cores buy nothing for the
	// unoptimised code (idle cores grow); the optimised solver keeps
	// absorbing them, which is where its headline speedup comes from.
}
