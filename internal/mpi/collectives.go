package mpi

import "fmt"

// Op is a reduction operator for Reduce/Allreduce.
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
// Implemented with the dissemination algorithm: ceil(log2 p) rounds of
// pairwise messages, so its virtual cost scales as the real thing does.
//
// Barrier, Bcast and Allreduce each have two bodies with bitwise equal
// virtual-time behaviour: the analytic replay (fastcoll.go), and the
// messages below, which run under a fault plan — where a rank can die or
// detect a death between two messages — and are the reference the
// differential tests hold the replay to.
func (c *Comm) Barrier() {
	defer c.proc.pushOp("barrier")()
	if c.world.analytic {
		c.rendezvous(collBarrier, 0, Sum, nil)
		return
	}
	p := c.Size()
	for k := 1; k < p; k *= 2 {
		to := (c.rank + k) % p
		from := (c.rank - k + p) % p
		c.sendRaw(to, tagCollective, nil)
		c.recvRaw(from, tagCollective)
	}
}

// Bcast distributes root's data to every rank using a binomial tree and
// returns each rank's copy. Non-root callers may pass nil.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	defer c.proc.pushOp("bcast")()
	if c.world.analytic {
		return c.rendezvous(collBcast, root, Sum, data)
	}
	p := c.Size()
	if p == 1 {
		return data
	}
	// Work in a rotated space where the root is rank 0 (MPICH binomial).
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % p
			data, _, _ = c.Recv(parent, tagCollective)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			child := (vrank + mask + root) % p
			c.Send(child, tagCollective, data)
		}
	}
	return data
}

// Reduce combines data element-wise across ranks with op, delivering the
// result at root (nil elsewhere). Binomial-tree reduction.
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	defer c.proc.pushOp("reduce")()
	p := c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		if c.rank == root {
			return acc
		}
		return nil
	}
	vrank := (c.rank - root + p) % p
	for k := 1; k < p; k *= 2 {
		if vrank&k != 0 {
			parent := ((vrank &^ k) + root) % p
			c.Send(parent, tagCollective, acc)
			return nil
		}
		childV := vrank | k
		if childV < p {
			child, _, _ := c.Recv((childV+root)%p, tagCollective)
			op.apply(acc, child)
			c.Release(child)
		}
	}
	return acc
}

// Allreduce combines data element-wise across all ranks with op and
// returns the result on every rank. Uses recursive doubling, with a fold
// step for non-power-of-two sizes (the MPICH algorithm family).
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	defer c.proc.pushOp("allreduce")()
	if c.world.analytic {
		return c.rendezvous(collAllreduce, 0, op, data)
	}
	p := c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	// pow2 is the largest power of two <= p.
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	extra := p - pow2
	// Fold: ranks >= pow2 send their data to rank-pow2 and wait for result.
	if c.rank >= pow2 {
		c.Send(c.rank-pow2, tagCollective, acc)
		res, _, _ := c.Recv(c.rank-pow2, tagCollective)
		return res
	}
	if c.rank < extra {
		d, _, _ := c.Recv(c.rank+pow2, tagCollective)
		op.apply(acc, d)
		c.Release(d)
	}
	// Recursive doubling among the first pow2 ranks.
	for k := 1; k < pow2; k *= 2 {
		partner := c.rank ^ k
		c.Send(partner, tagCollective, acc)
		d, _, _ := c.Recv(partner, tagCollective)
		op.apply(acc, d)
		c.Release(d)
	}
	// Unfold: return results to the extra ranks.
	if c.rank < extra {
		c.Send(c.rank+pow2, tagCollective, acc)
	}
	return acc
}

// AllreduceScalar reduces a single float64 across all ranks.
func (c *Comm) AllreduceScalar(x float64, op Op) float64 {
	return c.Allreduce([]float64{x}, op)[0]
}

// AllreduceInt reduces a single int across all ranks.
func (c *Comm) AllreduceInt(x int, op Op) int {
	return int(c.AllreduceScalar(float64(x), op))
}

// Gather collects each rank's slice at root, returned as one slice per
// source rank in rank order (nil on non-roots). Linear gather; payload
// sizes may differ per rank.
func (c *Comm) Gather(root int, data []float64) [][]float64 {
	defer c.proc.pushOp("gather")()
	p := c.Size()
	if c.rank != root {
		c.Send(root, tagCollective, data)
		return nil
	}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		if r == root {
			cp := make([]float64, len(data))
			copy(cp, data)
			out[r] = cp
			continue
		}
		d, _, _ := c.Recv(r, tagCollective)
		out[r] = d
	}
	return out
}

// GatherInts collects each rank's int slice at root.
func (c *Comm) GatherInts(root int, data []int) [][]int {
	defer c.proc.pushOp("gather")()
	p := c.Size()
	if c.rank != root {
		c.SendInts(root, tagCollective, data)
		return nil
	}
	out := make([][]int, p)
	for r := 0; r < p; r++ {
		if r == root {
			cp := make([]int, len(data))
			copy(cp, data)
			out[r] = cp
			continue
		}
		d, _, _ := c.RecvInts(r, tagCollective)
		out[r] = d
	}
	return out
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

// AllgatherInts collects every rank's int slice on every rank (Bruck).
func (c *Comm) AllgatherInts(data []int) [][]int {
	defer c.proc.pushOp("allgather")()
	p := c.Size()
	blocks := make([][]int, 1, p)
	cp := make([]int, len(data))
	copy(cp, data)
	blocks[0] = cp
	for k := 1; k < p; k *= 2 {
		cnt := k
		if p-k < cnt {
			cnt = p - k
		}
		total := 1
		for _, b := range blocks[:cnt] {
			total += 1 + len(b)
		}
		buf := make([]int, 0, total)
		buf = append(buf, cnt)
		for _, b := range blocks[:cnt] {
			buf = append(buf, len(b))
			buf = append(buf, b...)
		}
		to := (c.rank - k + p) % p
		from := (c.rank + k) % p
		c.SendInts(to, tagCollective, buf)
		d, _, _ := c.RecvInts(from, tagCollective)
		n := d[0]
		pos := 1
		for i := 0; i < n; i++ {
			l := d[pos]
			pos++
			blocks = append(blocks, d[pos:pos+l:pos+l])
			pos += l
		}
	}
	out := make([][]int, p)
	for i, b := range blocks {
		out[(c.rank+i)%p] = b
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

// AlltoallvInts is Alltoallv for int payloads.
func (c *Comm) AlltoallvInts(send [][]int) [][]int {
	defer c.proc.pushOp("alltoallv")()
	p := c.Size()
	if len(send) != p {
		panic(fmt.Sprintf("mpi: AlltoallvInts needs %d send buffers, got %d", p, len(send)))
	}
	out := make([][]int, p)
	cp := make([]int, len(send[c.rank]))
	copy(cp, send[c.rank])
	out[c.rank] = cp
	for step := 1; step < p; step++ {
		to := (c.rank + step) % p
		from := (c.rank - step + p) % p
		c.SendInts(to, tagCollective, send[to])
		d, _, _ := c.RecvInts(from, tagCollective)
		out[from] = d
	}
	return out
}

// Scatter distributes parts[i] from root to rank i (linear). Every rank
// returns its own part; non-root callers pass nil parts.
func (c *Comm) Scatter(root int, parts [][]float64) []float64 {
	defer c.proc.pushOp("scatter")()
	p := c.Size()
	if c.rank == root {
		if len(parts) != p {
			panic(fmt.Sprintf("mpi: Scatter needs %d parts, got %d", p, len(parts)))
		}
		for r := 0; r < p; r++ {
			if r != root {
				c.Send(r, tagCollective, parts[r])
			}
		}
		cp := make([]float64, len(parts[root]))
		copy(cp, parts[root])
		return cp
	}
	d, _, _ := c.Recv(root, tagCollective)
	return d
}

// ExscanSum returns the exclusive prefix sum of x across ranks (rank 0
// gets 0). Linear chain; used for global numbering.
func (c *Comm) ExscanSum(x float64) float64 {
	defer c.proc.pushOp("exscan")()
	p := c.Size()
	acc := 0.0
	if c.rank > 0 {
		d, _, _ := c.Recv(c.rank-1, tagCollective)
		acc = d[0]
		c.Release(d)
	}
	if c.rank < p-1 {
		c.Send(c.rank+1, tagCollective, []float64{acc + x})
	}
	return acc
}
