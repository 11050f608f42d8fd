package main

// Example pins the checkpoint-interval sweep: the fault plan is seeded, so
// crash times, restarts and run-times replay exactly.
func Example() {
	main()
	// Output:
	// fault-free baseline: 0.2487 s for 24 density steps
	//
	// injecting 3 crash(es), MTBF 0.0829 s
	//
	// ckpt every       runtime(s)  overhead(s)   restarts
	// never                0.5489       0.3002          2
	// 1 steps              0.8172       0.5685          3
	// 2 steps              0.5649       0.3162          3
	// 4 steps              0.5057       0.2569          3
	// 8 steps              0.5639       0.3151          3
	// 12 steps             0.5644       0.3157          3
	//
	// Every setting finishes with bitwise-identical solver state — the
	// fault model only moves virtual time. The minimum sits near Young's
	// first-order optimum tau* = sqrt(2 * C * MTBF).
}
