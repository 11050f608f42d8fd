package cluster

import (
	"fmt"
	"math"
)

// Work describes an amount of computation in machine-independent units.
// Time is charged with a roofline rule: the slower of the flop time and the
// memory-streaming time, so memory-bound kernels (SpMV, particle push) are
// automatically bandwidth-limited.
type Work struct {
	Flops float64 // floating point operations
	Bytes float64 // bytes streamed to/from memory
}

// Add returns the element-wise sum of two work descriptions.
func (w Work) Add(o Work) Work { return Work{w.Flops + o.Flops, w.Bytes + o.Bytes} }

// Scale returns the work multiplied by s.
func (w Work) Scale(s float64) Work { return Work{w.Flops * s, w.Bytes * s} }

// Machine describes one HPC system.
type Machine struct {
	Name         string
	CoresPerNode int

	// Compute rates, per core. Effective (sustained) rather than peak.
	FlopRate float64 // flops/second/core
	MemBW    float64 // bytes/second/core of sustained stream bandwidth

	// Point-to-point network parameters (Hockney alpha-beta model).
	IntraNodeLatency float64 // seconds, shared-memory transport
	IntraNodeBW      float64 // bytes/second within a node
	InterNodeLatency float64 // seconds, NIC + fabric
	InterNodeBW      float64 // bytes/second achievable by one rank off-node

	// NICBW is the injection bandwidth of a whole node. When many ranks on
	// a node send off-node concurrently they share it; the runtime models
	// this statically through EffectiveInterBW.
	NICBW float64

	// SendOverhead is CPU time consumed on the sender per message
	// (matching, packing, descriptor setup). RecvOverhead likewise.
	SendOverhead float64
	RecvOverhead float64

	// ContendingRanks is the assumed number of ranks per node competing
	// for the NIC during communication-heavy phases. Calibrated, static,
	// deterministic. Zero means "no contention".
	ContendingRanks int

	// Stable-storage terms for coordinated checkpointing: a per-operation
	// latency (metadata, open/sync) and the bandwidth one rank sustains to
	// the parallel filesystem once its node-level and filesystem-level
	// shares are accounted for. Zero StorageBW means "free checkpoints"
	// (only the latency is charged), which keeps the fields optional for
	// machines that never checkpoint.
	StorageLatency float64 // seconds per checkpoint write
	StorageBW      float64 // bytes/second/rank to stable storage
}

// ARCHER2 returns the model of the HPE-Cray EX system used in the paper:
// 2x 64-core AMD EPYC 7742 (2.25 GHz) per node, 256 GB/node, Slingshot-10.
//
// Rates are sustained figures for the irregular, memory-bound kernels in
// this workload (unstructured FV fluxes, SpMV, particle push), not peak:
// roughly 2.2 GF/s/core and 3.1 GB/s/core of stream bandwidth when all
// 128 cores are active (≈400 GB/s/node aggregate, DDR4-3200 8-channel x2).
func ARCHER2() *Machine {
	return &Machine{
		Name:             "ARCHER2 (HPE-Cray EX, 2x AMD EPYC 7742/node)",
		CoresPerNode:     128,
		FlopRate:         2.2e9,
		MemBW:            3.1e9,
		IntraNodeLatency: 0.4e-6,
		IntraNodeBW:      6.0e9,
		InterNodeLatency: 2.0e-6,
		InterNodeBW:      1.8e9,
		NICBW:            25e9, // Slingshot-10: 100 Gb/s x2 per node
		SendOverhead:     0.3e-6,
		RecvOverhead:     0.3e-6,
		ContendingRanks:  32,
		// Lustre /work: hundreds of GB/s aggregate; with collective
		// buffering a checkpointing rank sustains a few hundred MB/s of
		// the shared filesystem even at the paper's rank counts.
		StorageLatency: 2e-3,
		StorageBW:      2e8,
	}
}

// Cirrus32 returns a model of the 32-cores/node system class the
// production pressure solver was originally profiled on (Section II-B
// notes the hardware difference: 32 cores/node vs ARCHER2's 128). Fewer
// ranks share each NIC, so per-rank effective bandwidth is higher, which
// is why direct cross-machine comparisons in the paper are qualified.
func Cirrus32() *Machine {
	return &Machine{
		Name:             "32-core/node cluster (pressure-solver test system class)",
		CoresPerNode:     32,
		FlopRate:         2.0e9,
		MemBW:            4.0e9,
		IntraNodeLatency: 0.4e-6,
		IntraNodeBW:      5.0e9,
		InterNodeLatency: 1.5e-6,
		InterNodeBW:      2.5e9,
		NICBW:            12.5e9,
		SendOverhead:     0.3e-6,
		RecvOverhead:     0.3e-6,
		ContendingRanks:  8,
		StorageLatency:   1e-3,
		StorageBW:        1e8,
	}
}

// SmallCluster returns a modest commodity-cluster model, useful in tests
// and examples where ARCHER2-scale constants would hide effects at small
// rank counts (higher latency, fewer cores per node).
func SmallCluster() *Machine {
	return &Machine{
		Name:             "small commodity cluster (16 cores/node)",
		CoresPerNode:     16,
		FlopRate:         3.0e9,
		MemBW:            4.0e9,
		IntraNodeLatency: 0.5e-6,
		IntraNodeBW:      5.0e9,
		InterNodeLatency: 15.0e-6,
		InterNodeBW:      1.0e9,
		NICBW:            10e9,
		SendOverhead:     0.5e-6,
		RecvOverhead:     0.5e-6,
		ContendingRanks:  8,
		StorageLatency:   5e-3,
		StorageBW:        100e6,
	}
}

// Validate reports whether the machine description is internally usable.
func (m *Machine) Validate() error {
	switch {
	case m.CoresPerNode <= 0:
		return fmt.Errorf("cluster: %s: CoresPerNode must be positive", m.Name)
	case m.FlopRate <= 0 || m.MemBW <= 0:
		return fmt.Errorf("cluster: %s: compute rates must be positive", m.Name)
	case m.IntraNodeBW <= 0 || m.InterNodeBW <= 0:
		return fmt.Errorf("cluster: %s: bandwidths must be positive", m.Name)
	case m.IntraNodeLatency < 0 || m.InterNodeLatency < 0:
		return fmt.Errorf("cluster: %s: latencies must be non-negative", m.Name)
	case m.StorageLatency < 0 || m.StorageBW < 0:
		return fmt.Errorf("cluster: %s: storage terms must be non-negative", m.Name)
	}
	return nil
}

// CheckpointTime returns the modelled time for one rank to write a
// checkpoint of the given size to stable storage: the storage latency
// plus the streaming time at the rank's storage-bandwidth share. With no
// StorageBW configured only the latency is charged.
func (m *Machine) CheckpointTime(bytes int) float64 {
	t := m.StorageLatency
	if m.StorageBW > 0 && bytes > 0 {
		t += float64(bytes) / m.StorageBW
	}
	return t
}

// Node returns the node index hosting the given rank under the default
// block mapping (ranks fill nodes in order, as with slurm --distribution=block).
func (m *Machine) Node(rank int) int { return rank / m.CoresPerNode }

// SameNode reports whether two ranks share a node.
func (m *Machine) SameNode(a, b int) bool { return m.Node(a) == m.Node(b) }

// ComputeTime converts work into virtual seconds on one core using the
// roofline rule max(flop time, memory time).
func (m *Machine) ComputeTime(w Work) float64 {
	return math.Max(w.Flops/m.FlopRate, w.Bytes/m.MemBW)
}

// EffectiveInterBW is the off-node bandwidth one rank achieves once NIC
// sharing is accounted for: the per-rank link rate capped by an equal share
// of the node's injection bandwidth among the assumed contending ranks.
func (m *Machine) EffectiveInterBW() float64 {
	bw := m.InterNodeBW
	if m.ContendingRanks > 0 {
		if share := m.NICBW / float64(m.ContendingRanks); share < bw {
			bw = share
		}
	}
	return bw
}

// Link returns the Hockney alpha-beta terms of the path between two
// ranks: the latency in seconds and the achievable bandwidth in
// bytes/second, chosen by the rank-to-node mapping (self-message,
// intra-node, or inter-node with NIC sharing). TransferTime and the mpi
// runtime's analytic collective recurrences both evaluate message delays
// as latency + bytes/bandwidth from these exact terms, which is what
// keeps the two paths bitwise identical.
func (m *Machine) Link(src, dst int) (latency, bandwidth float64) {
	if src == dst {
		// Self-message: memcpy through shared memory.
		return 0, m.IntraNodeBW
	}
	if m.SameNode(src, dst) {
		return m.IntraNodeLatency, m.IntraNodeBW
	}
	return m.InterNodeLatency, m.EffectiveInterBW()
}

// TransferTime returns the virtual-time network delay for a message of the
// given size between two ranks: alpha + bytes/beta with intra-/inter-node
// parameters chosen by the rank-to-node mapping (see Link). Sender and
// receiver CPU overheads are charged separately by the runtime.
func (m *Machine) TransferTime(src, dst, bytes int) float64 {
	if bytes < 0 {
		bytes = 0
	}
	lat, bw := m.Link(src, dst)
	return lat + float64(bytes)/bw
}

// Nodes returns the number of nodes needed to host p ranks.
func (m *Machine) Nodes(p int) int {
	return (p + m.CoresPerNode - 1) / m.CoresPerNode
}
