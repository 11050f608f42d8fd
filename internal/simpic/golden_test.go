package simpic

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
)

// TestGoldenStateDigests pins the folded per-rank state hash after 40
// steps at 1, 2 and 8 ranks. Eight cells a rank at 8 ranks keep
// migrants crossing every slab boundary in both directions on nearly
// every step, and the field is sub-cycled so the cached potential is in
// play; half-way the run takes a checkpoint, runs on, and restores it.
// The values were recorded at the last commit whose migrate rebuilt the
// particle arrays from nil each step: compaction in place must keep the
// particle order, and so every bit, unchanged.
func TestGoldenStateDigests(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 20, Steps: 40, Seed: 3, FieldEvery: 2}
	for _, g := range []struct {
		ranks  int
		digest uint64
	}{
		{1, 0x29b861f84700f821},
		{2, 0x4b82c12357816eba},
		{8, 0x34fb58600b3b7977},
	} {
		digests := make([]uint64, g.ranks)
		moved := make([]bool, g.ranks)
		_, err := mpi.Run(g.ranks, cfg(), func(comm *mpi.Comm) error {
			s, err := New(comm, c, ScaleOpts{})
			if err != nil {
				return err
			}
			n0 := len(s.px)
			for i := 0; i < c.Steps; i++ {
				if i == c.Steps/2 {
					ck := fault.Save(s.Walk)
					for j := 0; j < 5; j++ {
						s.Step()
					}
					if err := ck.Restore(s.Walk); err != nil {
						return err
					}
				}
				s.Step()
				if len(s.px) != n0 {
					moved[comm.Rank()] = true
				}
			}
			digests[comm.Rank()] = fault.Hash(s.Walk)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, m := range moved {
			if g.ranks > 1 && !m {
				t.Errorf("%d ranks: rank %d's population never changed; the case exercises no migration", g.ranks, r)
			}
		}
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, digests) // a hash.Hash never fails a Write
		if got := h.Sum64(); got != g.digest {
			t.Errorf("%d ranks: digest %#x, golden %#x", g.ranks, got, g.digest)
		}
	}
}
