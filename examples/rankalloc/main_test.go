package main

// Example pins the walkthrough's stdout: the fitted knees and the three
// Algorithm 1 allocations are a pure function of the samples.
func Example() {
	main()
	// Output:
	// fitted compressor rows (24M)    PE knee at ~4021 cores (k=1.03)
	// fitted combustor (380M)         PE knee at ~5164 cores (k=0.80)
	// fitted turbine row (300M)       PE knee at ~10386 cores (k=0.75)
	// fitted coupling unit            PE knee at ~31 cores (k=0.80)
	//
	// --- budget 5000 cores ---
	// component                  type        ranks        time(s)
	// compressor rows (24M)       app          106        144.192
	// combustor (380M)            app         3942        144.926
	// turbine row (300M)          app          888        144.813
	// coupling unit                CU           64          0.049
	// predicted run-time: 144.975 s (apps 144.926 + CUs 0.049)
	//
	// --- budget 20000 cores ---
	// component                  type        ranks        time(s)
	// compressor rows (24M)       app          239         65.886
	// combustor (380M)            app        17491         66.092
	// turbine row (300M)          app         2206         66.076
	// coupling unit                CU           64          0.049
	// predicted run-time: 66.141 s (apps 66.092 + CUs 0.049)
	//
	// --- budget 40000 cores ---
	// component                  type        ranks        time(s)
	// compressor rows (24M)       app          320         50.102
	// combustor (380M)            app        36501         50.104
	// turbine row (300M)          app         3115         50.091
	// coupling unit                CU           64          0.049
	// predicted run-time: 50.153 s (apps 50.104 + CUs 0.049)
	//
	// The combustor absorbs most of the budget until its PE knee;
	// beyond that Algorithm 1 idles the remainder rather than slow
	// the simulation down (run-time = slowest app + slowest CU).
}
