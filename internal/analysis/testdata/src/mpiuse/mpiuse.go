// Package mpiuse exercises the mpiuse analyzer with a local stub of the
// runtime's communicator API: rank-conditioned collectives.
package mpiuse

// Comm mirrors the runtime communicator (matched by type name).
type Comm struct {
	rank int
}

func (c *Comm) Rank() int      { return c.rank }
func (c *Comm) WorldRank() int { return c.rank }

func (c *Comm) Barrier()                           {}
func (c *Comm) Bcast(root int, data []float64)     {}
func (c *Comm) Allreduce(data []float64)           {}
func (c *Comm) Send(dst, tag int, data []float64)  {}
func (c *Comm) Recv(src, tag int) []float64        { return nil }

// ---- rank-conditioned collectives -------------------------------------------

func directRankCond(c *Comm, data []float64) {
	if c.Rank() == 0 {
		c.Barrier() // want `collective c\.Barrier inside a branch conditioned on the rank`
	}
}

func rankVarCond(c *Comm, data []float64) {
	r := c.Rank()
	if r == 0 {
		c.Bcast(0, data) // want `collective c\.Bcast inside a branch conditioned on the rank`
	}
}

func rankParamCond(c *Comm, rank int, data []float64) {
	if rank == 0 {
		c.Allreduce(data) // want `collective c\.Allreduce inside a branch conditioned on the rank`
	}
}

func switchRankCond(c *Comm) {
	switch c.Rank() {
	case 0:
		c.Barrier() // want `collective c\.Barrier inside a branch conditioned on the rank`
	}
}

func elseBranchCond(c *Comm, data []float64) {
	if c.Rank() == 0 {
		c.Send(1, 0, data)
	} else {
		c.Allreduce(data) // want `collective c\.Allreduce inside a branch conditioned on the rank`
	}
}

func pointToPointIsFine(c *Comm, data []float64) {
	// Rank-conditioned P2P is the normal pattern, not a collective hazard.
	if c.Rank() == 0 {
		c.Send(1, 0, data)
	} else if c.Rank() == 1 {
		data = c.Recv(0, 0)
	}
	_ = data
}

func unconditionedIsFine(c *Comm, data []float64) {
	c.Barrier()
	c.Allreduce(data)
}

func sizeCondIsFine(c *Comm, n int, data []float64) {
	// Conditions on anything other than the rank are fine.
	if n > 1 {
		c.Allreduce(data)
	}
}

func suppressedRankCond(c *Comm) {
	if c.Rank() == 0 {
		c.Barrier() //lint:allow mpiuse all ranks take this branch in lockstep via replicated state
	}
}
