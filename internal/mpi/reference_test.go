package mpi

// messageLevel computes Barrier, Bcast and Allreduce as real
// point-to-point messages: the reference the replay (fastcoll.go) is held
// to, bit for bit, with and without a fault plan. Tests reach it as
// runWorld's reference hook.
func messageLevel(c *Comm, kind collKind, root int, op Op, data []float64) []float64 {
	switch kind {
	case collBarrier:
		barrierMessages(c)
		return nil
	case collBcast:
		return bcastMessages(c, root, data)
	}
	return allreduceMessages(c, data, op)
}

// barrierMessages is the dissemination barrier: ceil(log2 p) rounds,
// round k sending to rank+k and receiving from rank-k.
func barrierMessages(c *Comm) {
	p := c.Size()
	for k := 1; k < p; k *= 2 {
		to := (c.rank + k) % p
		from := (c.rank - k + p) % p
		c.Send(to, tagCollective, nil)
		c.Recv(from, tagCollective)
	}
}

// bcastMessages is the binomial tree, in a rotated space where the root
// is rank 0 (MPICH).
func bcastMessages(c *Comm, root int, data []float64) []float64 {
	p := c.Size()
	if p == 1 {
		return data
	}
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

// allreduceMessages is recursive doubling with the non-power-of-two fold:
// ranks past the largest power of two fold onto a low partner and get the
// result back.
func allreduceMessages(c *Comm, data []float64, op Op) []float64 {
	p := c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	extra := p - pow2
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
	for k := 1; k < pow2; k *= 2 {
		partner := c.rank ^ k
		c.Send(partner, tagCollective, acc)
		d, _, _ := c.Recv(partner, tagCollective)
		op.apply(acc, d)
		c.Release(d)
	}
	if c.rank < extra {
		c.Send(c.rank+pow2, tagCollective, acc)
	}
	return acc
}
