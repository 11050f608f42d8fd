package mgcfd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cpx/internal/mesh"
	"cpx/internal/mpi"
)

// referenceRestrict is restrictTo's body before the row-wise rewrite:
// one index computation per coarse node and variable. It writes the
// injected values into dst, a coarse-level array of cd's nodes.
func referenceRestrict(fine *level, cd mesh.Dims, dst [][]float64) {
	fd := fine.dims
	fni, fnj := fd.NI+1, fd.NJ+1
	cni, cnj, cnk := cd.NI+1, cd.NJ+1, cd.NK+1
	for v := 0; v < NVAR; v++ {
		for k := 0; k < cnk; k++ {
			for j := 0; j < cnj; j++ {
				for i := 0; i < cni; i++ {
					fi, fj, fk := min(2*i, fni-1), min(2*j, fnj-1), min(2*k, fd.NK)
					dst[v][(k*cnj+j)*cni+i] = fine.q[v][(fk*fnj+fj)*fni+fi]
				}
			}
		}
	}
}

// referenceProlong is prolongFrom's body before the rewrite: the damped
// coarse correction recomputed at every fine node, which it adds into
// fine, an array of fd's nodes. It does not write before.
func referenceProlong(coarse *level, fd mesh.Dims, fine, before [][]float64, damp float64) {
	cd := coarse.dims
	fni, fnj, fnk := fd.NI+1, fd.NJ+1, fd.NK+1
	cni, cnj := cd.NI+1, cd.NJ+1
	for v := 0; v < NVAR; v++ {
		for k := 0; k < fnk; k++ {
			for j := 0; j < fnj; j++ {
				for i := 0; i < fni; i++ {
					ci, cj, ck := min(i/2, cd.NI), min(j/2, cd.NJ), min(k/2, cd.NK)
					cn := (ck*cnj+cj)*cni + ci
					fn := (k*fnj+j)*fni + i
					fine[v][fn] += damp * (coarse.q[v][cn] - before[v][cn])
				}
			}
		}
	}
}

// referenceExchangeHalo is exchangeHalo before its per-variable slices
// were hoisted: the same sends and receives, packing and relaxing
// through l.q[v] at every node.
func referenceExchangeHalo(s *Sim, l *level, lvlIdx int) {
	tag := tagHalo + lvlIdx
	for _, f := range l.faces {
		buf := make([]float64, len(f.nodes.idx)*NVAR)
		for v := 0; v < NVAR; v++ {
			for i, n := range f.nodes.idx {
				buf[v*len(f.nodes.idx)+i] = l.q[v][n]
			}
		}
		s.comm.SendVirtual(f.rank, tag, buf, f.trueCells*NVAR*8)
	}
	for _, f := range l.faces {
		d, _, _ := s.comm.Recv(f.rank, tag)
		per := len(d) / NVAR
		m := min(per, len(f.nodes.idx))
		for v := 0; v < NVAR; v++ {
			for i := 0; i < m; i++ {
				n := f.nodes.idx[i]
				l.q[v][n] = 0.5*l.q[v][n] + 0.5*d[v*per+i]
			}
		}
		s.comm.Release(d)
	}
}

// copyVars returns a deep copy of a NVAR × nodes array.
func copyVars(q [][]float64) [][]float64 {
	out := make([][]float64, len(q))
	for v := range q {
		out[v] = append([]float64(nil), q[v]...)
	}
	return out
}

// sameVars compares two NVAR × nodes arrays bit for bit.
func sameVars(got, want [][]float64) error {
	for v := range want {
		for n, w := range want[v] {
			if g := got[v][n]; !sameBits(g, w) {
				return fmt.Errorf("[%d][%d] = %v (%#x), reference %v (%#x)", v, n, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// kernelRuns are the runs the transfer oracles check: a 16³ cube on one
// rank, the same cube uncapped on 6 ranks, and the capped slabs and
// pencils of 6- and 12-rank Production() runs.
var kernelRuns = []struct {
	cells int64
	ranks int
	sc    ScaleOpts
}{
	{4096, 1, ScaleOpts{}},
	{4096, 6, ScaleOpts{}},
	{3_000_000, 6, Production()},
	{3_000_000, 12, Production()},
	{30_000, 12, Production()},
}

// eachRun calls check on every active rank of every kernelRuns run with
// seeded states, and fails the test with the first error.
func eachRun(t *testing.T, check func(s *Sim, rng *rand.Rand) error) {
	t.Helper()
	for _, r := range kernelRuns {
		_, err := mpi.Run(r.ranks, cfg(), func(c *mpi.Comm) error {
			s, err := New(c, Config{MeshCells: r.cells, Steps: 1, Seed: 2}, r.sc)
			if err != nil || !s.active {
				return err
			}
			rng := rand.New(rand.NewSource(int64(r.ranks*1000 + c.Rank())))
			seedStates(s, rng)
			if err := check(s, rng); err != nil {
				return fmt.Errorf("%d cells on %d ranks, rank %d: %w", r.cells, r.ranks, c.Rank(), err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// coarsePairs are fine/coarse level pairs built by hand whose odd and
// unit dims make the index clamps bind.
var coarsePairs = []mesh.Dims{{NI: 9, NJ: 5, NK: 1}, {NI: 1, NJ: 1, NK: 1}, {NI: 2, NJ: 7, NK: 3}}

// TestRestrictMatchesReference is restrictTo's oracle: on seeded states
// the injected coarse values equal referenceRestrict's bit for bit at
// every level of every kernelRuns rank and on hand-built pairs.
func TestRestrictMatchesReference(t *testing.T) {
	check := func(s *Sim, fine, coarse *level) error {
		want := allocVars(coarse.nodes)
		referenceRestrict(fine, coarse.dims, want)
		s.restrictTo(fine, coarse)
		if err := sameVars(coarse.q, want); err != nil {
			return fmt.Errorf("dims %v → %v: coarse q%w", fine.dims, coarse.dims, err)
		}
		return nil
	}
	eachRun(t, func(s *Sim, _ *rand.Rand) error {
		for li := 1; li < len(s.levels); li++ {
			if err := check(s, s.levels[li-1], s.levels[li]); err != nil {
				return err
			}
		}
		for _, d := range coarsePairs {
			fine, coarse := handLevel(d), handLevel(d.Coarsen())
			s.levels = []*level{fine, coarse}
			seedStates(s, rand.New(rand.NewSource(int64(d.NI))))
			if err := check(s, fine, coarse); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestProlongMatchesReference is prolongFrom's oracle: from seeded
// states and a seeded pre-smoothing copy, the corrected fine values
// equal referenceProlong's bit for bit at every level of every
// kernelRuns rank and on hand-built pairs.
func TestProlongMatchesReference(t *testing.T) {
	check := func(s *Sim, rng *rand.Rand, coarse, fine *level) error {
		before := copyVars(coarse.q)
		for v := range before {
			for n := range before[v] {
				if rng.Intn(4) > 0 {
					before[v][n] += 0.1 * rng.NormFloat64()
				}
			}
		}
		want := copyVars(fine.q)
		referenceProlong(coarse, fine.dims, want, copyVars(before), 0.3)
		s.prolongFrom(coarse, fine, before, 0.3)
		if err := sameVars(fine.q, want); err != nil {
			return fmt.Errorf("dims %v → %v: fine q%w", coarse.dims, fine.dims, err)
		}
		return nil
	}
	eachRun(t, func(s *Sim, rng *rand.Rand) error {
		for li := 1; li < len(s.levels); li++ {
			if err := check(s, rng, s.levels[li], s.levels[li-1]); err != nil {
				return err
			}
		}
		for _, d := range coarsePairs {
			fine, coarse := handLevel(d), handLevel(d.Coarsen())
			s.levels = []*level{fine, coarse}
			seedStates(s, rng)
			if err := check(s, rng, coarse, fine); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestExchangeHaloMatchesReference is exchangeHalo's oracle: every rank
// of every kernelRuns run exchanges each level's halo once with
// referenceExchangeHalo and once, from the same seeded states, with
// exchangeHalo, and the relaxed states agree bit for bit.
func TestExchangeHaloMatchesReference(t *testing.T) {
	eachRun(t, func(s *Sim, _ *rand.Rand) error {
		seeded := make([][][]float64, len(s.levels))
		want := make([][][]float64, len(s.levels))
		for li, l := range s.levels {
			seeded[li] = copyVars(l.q)
			referenceExchangeHalo(s, l, li)
			want[li] = copyVars(l.q)
		}
		faces := 0
		for li, l := range s.levels {
			l.q = seeded[li]
			s.exchangeHalo(l, li)
			if err := sameVars(l.q, want[li]); err != nil {
				return fmt.Errorf("level %d: q%w", li, err)
			}
			faces += len(l.faces)
		}
		if s.comm.Size() > 1 && faces == 0 {
			return fmt.Errorf("no faces exchanged")
		}
		return nil
	})
}
