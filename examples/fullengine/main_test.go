package main

// Example pins the 16-instance engine chain's per-instance virtual times,
// bottleneck and coupling share.
func Example() {
	main()
	// Output:
	// full engine: 16 instances + 15 coupling units on 59 ranks
	//
	// instance              time(s)   compute(s)
	// row01 (8k)             0.1244       0.0379
	// row02 (24k)            0.1245       0.1223
	// row03 (24k)            0.1510       0.1223
	// row04 (24k)            0.1766       0.1223
	// row05 (24k)            0.2022       0.1223
	// row06 (24k)            0.2278       0.1223
	// row07 (24k)            0.2534       0.1223
	// row08 (24k)            0.2796       0.1223
	// row09 (24k)            0.3052       0.1223
	// row10 (24k)            0.3308       0.1223
	// row11 (24k)            0.3564       0.1223
	// row12 (24k)            0.3820       0.1223
	// row13 (150k)           0.3822       0.3800
	// combustor              0.7094       0.0031
	// row15 (150k)           0.7454       0.3800
	// row16 (300k)           0.7454       0.7450
	//
	// simulated run-time 0.7454 s for 10 density steps
	// bottleneck instance: row15 (150k) (the cascading exchange dependency
	// makes the whole simulation progress at the slowest component's pace)
	// coupling share of run-time: 0.12%
}
