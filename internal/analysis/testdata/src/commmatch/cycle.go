package commmatch

// ---- cyclic waits-for (recv-before-send) deadlocks --------------------------

// headToHead: rank 0 blocks receiving from rank 1 while rank 1 blocks
// receiving from rank 0 — neither send is ever reached. The runtime's
// watchdog reports this as a deadlock only once it runs; the
// analyzer reports both endpoints statically. Each send's tag is
// received by the peer branch, so only the cycle fires.
func headToHead(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		c.Recv(1, 401) // want `cyclic waits-for between rank-pinned branches — guaranteed deadlock .*rank 0 of c blocks in Recv from rank 1 \(cycle\.go:\d+\).*rank 1 of c blocks in Recv from rank 0 \(cycle\.go:\d+\)`
		c.Send(1, 402, data)
	} else if r == 1 {
		c.Recv(0, 402)
		c.Send(0, 401, data)
	}
}

// orderedExchange: rank 0 sends before it receives, so rank 1's blocked
// receive is satisfied and the exchange drains — no cycle.
func orderedExchange(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		c.Send(1, 411, data)
		c.Recv(1, 412)
	} else if r == 1 {
		c.Recv(0, 411)
		c.Send(0, 412, data)
	}
}

// nonblockingBreaksCycle: Irecv does not park the rank, so crossed
// receives complete at Wait time after both sends are in flight.
func nonblockingBreaksCycle(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		req := c.Irecv(1, 421)
		c.Send(1, 422, data)
		req.Wait()
	} else if r == 1 {
		req := c.Irecv(0, 422)
		c.Send(0, 421, data)
		req.Wait()
	}
}

// threeCycle: the waits-for relation can be cyclic through any number
// of ranks — 0 waits on 1, 1 waits on 2, 2 waits on 0.
func threeCycle(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		c.Recv(1, 431) // want `cyclic waits-for between rank-pinned branches`
		c.Send(2, 433, data)
	} else if r == 1 {
		c.Recv(2, 432)
		c.Send(0, 431, data)
	} else if r == 2 {
		c.Recv(0, 433)
		c.Send(1, 432, data)
	}
}

func suppressedCycle(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		// The harness injects rank 1's message before this run begins.
		c.Recv(1, 441) //lint:allow commmatch pre-seeded mailbox breaks the cycle at startup
		c.Send(1, 442, data)
	} else if r == 1 {
		c.Recv(0, 442)
		c.Send(0, 441, data)
	}
}

// halfSuppressedCycle: the cycle diagnostic names both call sites but is
// reported at exactly one (the first rank-pinned branch's receive). A
// suppression on the OTHER leg does not apply — the diagnostic still
// fires at the reported site.
func halfSuppressedCycle(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		c.Recv(1, 451) // want `cyclic waits-for between rank-pinned branches`
		c.Send(1, 452, data)
	} else if r == 1 {
		c.Recv(0, 452) //lint:allow commmatch suppression on the wrong leg must not silence the cycle
		c.Send(0, 451, data)
	}
}
