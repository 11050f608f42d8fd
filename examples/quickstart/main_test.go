package main

// Example pins the strong-scaling table: every run-time is virtual
// seconds on the machine model, so the output is a pure function of the
// configuration.
func Example() {
	main()
	// Output:
	// machine: ARCHER2 (HPE-Cray EX, 2x AMD EPYC 7742/node)
	//
	//    cores   runtime(s)    speedup       PE
	//       16       0.0715       1.00     100%
	//       32       0.0374       1.91      96%
	//       64       0.0205       3.49      87%
	//      128       0.0122       5.86      73%
	//      256       0.0100       7.16      45%
	//
	// Every run executed the real PIC algorithm (deposit, parallel
	// tridiagonal field solve, leapfrog push, migration) as goroutine
	// ranks with virtual-time communication on the machine model.
}
