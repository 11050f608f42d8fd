package simpic

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/mpi"
)

// TestGoldenStateDigests pins the folded per-rank state hash after 40
// steps. Eight cells a rank at 8 ranks keep migrants crossing every slab
// boundary in both directions on nearly every step, and the field is
// sub-cycled so the cached potential is in play; during the run it takes
// a checkpoint, runs on five steps, and restores it. The first three rows
// were recorded at the last commit whose migrate rebuilt the particle
// arrays from nil each step: compaction in place must keep the particle
// order, and so every bit, unchanged. The last two were recorded before
// the field solver took its factors from the run's memo and solved in
// the charge window: 67 cells on 8 ranks give the ranks segments of two
// lengths (7 and 8 interior nodes), so the memo holds two keys; the
// capped row binds both ScaleOpts caps (so simulated and true extents
// differ) and restores at an odd step, mid-sub-cycle, so the step after
// the restore pushes with the restored potential without solving.
func TestGoldenStateDigests(t *testing.T) {
	c := Config{Cells: 64, ParticlesPerCell: 20, Steps: 40, Seed: 3, FieldEvery: 2}
	for _, g := range []struct {
		name   string
		ranks  int
		c      Config
		sc     ScaleOpts
		ckAt   int // step at which the checkpoint is taken
		digest uint64
	}{
		{"1 rank", 1, c, ScaleOpts{}, 20, 0x29b861f84700f821},
		{"2 ranks", 2, c, ScaleOpts{}, 20, 0x4b82c12357816eba},
		{"8 ranks", 8, c, ScaleOpts{}, 20, 0x34fb58600b3b7977},
		{"67 cells on 8 ranks", 8, Config{Cells: 67, ParticlesPerCell: 20, Steps: 40, Seed: 4, FieldEvery: 2}, ScaleOpts{}, 20, 0xff24e461db989d0c},
		{"capped", 4, Config{Cells: 256, ParticlesPerCell: 20, Steps: 40, Seed: 5, FieldEvery: 2},
			ScaleOpts{MaxCellsPerRank: 16, MaxParticlesPerRank: 200}, 21, 0xdd09d29bdb2700ff},
	} {
		c := g.c
		digests := make([]uint64, g.ranks)
		moved := make([]bool, g.ranks)
		_, err := mpi.Run(g.ranks, cfg(), func(comm *mpi.Comm) error {
			s, err := New(comm, c, g.sc)
			if err != nil {
				return err
			}
			n0 := len(s.px)
			for i := 0; i < c.Steps; i++ {
				if i == g.ckAt {
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
				t.Errorf("%s: rank %d's population never changed; the case exercises no migration", g.name, r)
			}
		}
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, digests) // a hash.Hash never fails a Write
		if got := h.Sum64(); got != g.digest {
			t.Errorf("%s: digest %#x, golden %#x", g.name, got, g.digest)
		}
	}
}
