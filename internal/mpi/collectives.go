package mpi

import "fmt"

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

func (op Op) apply(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: reduce length mismatch: %d vs %d", len(dst), len(src)))
	}
	switch op {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", op))
	}
}

// Barrier blocks until every rank in the communicator has entered it.
// It is the dissemination algorithm's ceil(log2 p) rounds of pairwise
// messages, replayed (fastcoll.go), so its virtual cost scales as the
// real thing does.
func (c *Comm) Barrier() {
	defer c.proc.pushOp("barrier")()
	c.rendezvous(collBarrier, 0, Sum, nil)
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy. Non-root callers may pass nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	defer c.proc.pushOp("bcast")()
	return c.rendezvous(collBcast, root, Sum, data)
}

// Allreduce combines data element-wise across all ranks with op and
// returns the result on every rank: recursive doubling, with a fold step
// for non-power-of-two sizes (the MPICH algorithm family).
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	defer c.proc.pushOp("allreduce")()
	return c.rendezvous(collAllreduce, 0, op, data)
}

// AllreduceScalar reduces a single float64 across all ranks.
func (c *Comm) AllreduceScalar(x float64, op Op) float64 {
	return c.Allreduce([]float64{x}, op)[0]
}

// Allgather collects every rank's slice on every rank, returned in rank
// order. Bruck's algorithm: ceil(log2 p) rounds with doubling block
// counts — the MPICH choice for small payloads, and what keeps the
// virtual (and host) cost logarithmic at the paper's 10,000+ rank scale.
// Blocks may have different lengths per rank.
func (c *Comm) Allgather(data []float64) [][]float64 {
	defer c.proc.pushOp("allgather")()
	p := c.Size()
	// blocks[i] holds the block of rank (c.rank + i) % p once filled.
	blocks := make([][]float64, 1, p)
	cp := make([]float64, len(data))
	copy(cp, data)
	blocks[0] = cp
	for k := 1; k < p; k *= 2 {
		cnt := k
		if p-k < cnt {
			cnt = p - k
		}
		// Pack the first cnt blocks into one message with a length header.
		buf := packBlocks(blocks[:cnt])
		to := (c.rank - k + p) % p
		from := (c.rank + k) % p
		c.Send(to, tagCollective, buf)
		d, _, _ := c.Recv(from, tagCollective)
		blocks = append(blocks, unpackBlocks(d)...)
	}
	out := make([][]float64, p)
	for i, b := range blocks {
		out[(c.rank+i)%p] = b
	}
	return out
}

// packBlocks concatenates blocks with length headers.
func packBlocks(blocks [][]float64) []float64 {
	total := 1
	for _, b := range blocks {
		total += 1 + len(b)
	}
	buf := make([]float64, 0, total)
	buf = append(buf, float64(len(blocks)))
	for _, b := range blocks {
		buf = append(buf, float64(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

func unpackBlocks(buf []float64) [][]float64 {
	n := int(buf[0])
	out := make([][]float64, 0, n)
	pos := 1
	for i := 0; i < n; i++ {
		l := int(buf[pos])
		pos++
		out = append(out, buf[pos:pos+l:pos+l])
		pos += l
	}
	return out
}

// Alltoallv exchanges send[i] to rank i from every rank, returning the
// slice received from each rank. Pairwise-exchange schedule: p-1 steps,
// step s pairing rank with rank+s and rank-s.
func (c *Comm) Alltoallv(send [][]float64) [][]float64 {
	defer c.proc.pushOp("alltoallv")()
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d send buffers, got %d", p, len(send)))
	}
	out := make([][]float64, p)
	cp := make([]float64, len(send[c.rank]))
	copy(cp, send[c.rank])
	out[c.rank] = cp
	for step := 1; step < p; step++ {
		to := (c.rank + step) % p
		from := (c.rank - step + p) % p
		c.Send(to, tagCollective, send[to])
		d, _, _ := c.Recv(from, tagCollective)
		out[from] = d
	}
	return out
}

// HaloExchange performs the standard neighbour exchange: for each
// neighbour i, send sendBufs[i] and receive that neighbour's buffer into
// recv[i]. neighbours lists peer ranks in c; recv is the caller's, one
// slot per neighbour, so a caller that exchanges every iteration keeps
// one and the exchange allocates nothing of its own. The received
// payloads belong to the caller (Release). Tags are derived from `tag`
// so multiple exchanges can be in flight on distinct tags.
func (c *Comm) HaloExchange(tag int, neighbours []int, sendBufs, recv [][]float64) {
	defer c.proc.pushOp("halo_exchange")()
	if len(neighbours) != len(sendBufs) || len(neighbours) != len(recv) {
		panic(fmt.Sprintf("mpi: HaloExchange: %d neighbours but %d send and %d receive buffers", len(neighbours), len(sendBufs), len(recv)))
	}
	for i, nb := range neighbours {
		c.Send(nb, tag, sendBufs[i])
	}
	// Sends are eager, so every receive can follow them, in neighbour
	// order.
	for i, nb := range neighbours {
		recv[i], _, _ = c.Recv(nb, tag)
	}
}
