package coupler

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cpx/internal/fault"
	"cpx/internal/particle"
)

// foldDigests folds the per-rank state digests into one word (FNV-1a
// over the little-endian words, in rank order).
func foldDigests(ds []uint64) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, ds) // a hash.Hash never fails a Write
	return h.Sum64()
}

// TestGoldenCoupledDigests pins the virtual elapsed time and the folded
// final-state digests of four coupled scenarios. The first three were
// captured at the last commit that still had two rank executors and
// three collective implementations, where all of them agreed; the FEM
// row at the last commit whose messages still carried []int payloads.
// They are the fixed reference later refactors of the runtime are held
// to. A change that moves one on purpose (a
// different algorithm's virtual cost, say) updates it and says why.
func TestGoldenCoupledDigests(t *testing.T) {
	for _, g := range []struct {
		name    string
		run     func() (*Report, error)
		elapsed float64
		digest  uint64
	}{
		{"sliding", func() (*Report, error) { return twoRowSim(Tree).Run(runCfg()) },
			0.0050354278283188956, 0xdc2fe5468ec2b6cd},
		{"steal-particles", func() (*Report, error) { return particleSim(particle.WorkSteal).Run(runCfg()) },
			0.004852668409439626, 0x51853cf26e821f97},
		{"checkpoint-restart", func() (*Report, error) {
			// Rank 2 dies at a fixed virtual time about three quarters
			// through, with checkpoints committed; the run rolls back to
			// the last one and replays.
			res, err := resilienceSim().RunResilient(runCfg(), ResilienceOptions{
				Plan:            &fault.Plan{Crashes: []fault.Crash{{Rank: 2, At: 0.02}}},
				CheckpointEvery: 2,
			})
			if err != nil {
				return nil, err
			}
			if res.Attempts != 2 {
				t.Errorf("checkpoint-restart: %d attempts, want the crash to cost exactly one restart", res.Attempts)
			}
			return res.Report, nil
		}, 1.0347740439477486, 0x988a468483055488},
		// The FEM casing's sparse.Dist set-up exchanges its halo row
		// requests through Alltoallv; this row pins that path.
		{"fem-casing", func() (*Report, error) { return femCasingSim().Run(runCfg()) },
			0.004426933929684043, 0x2c39384e3bc2bd1a},
	} {
		rep, err := g.run()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := foldDigests(rep.RankDigests); rep.Elapsed != g.elapsed || got != g.digest {
			t.Errorf("%s: elapsed %v digest %#x, golden %v %#x", g.name, rep.Elapsed, got, g.elapsed, g.digest)
		}
	}
}
