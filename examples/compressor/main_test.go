package main

// Example pins the donor-search comparison: run-times, CU busy time and
// coupling share are virtual seconds, identical on every host.
func Example() {
	main()
	// Output:
	// three coupled MG-CFD rows, sliding-plane interfaces remapped every step
	//
	// search                   runtime(s)     CU busy(s)   coupling share
	// brute-force               3716.2685      1858.1017           50.00%
	// kd-tree                      2.3207         1.1278           48.60%
	// kd-tree + prefetch           0.3503         0.1815           50.05%
	//
	// The tree search removes the O(targets x donors) remap cost of the
	// moving interface; prefetching donor candidates from the previous
	// step removes most remaining tree traversals.
}
