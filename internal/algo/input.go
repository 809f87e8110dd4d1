// Problem-input resolution: the one path from a registry Problem to
// machine views. Every input is a partition.ShardedInput over an edge
// stream — the G(N, EdgeP) generator's, the edge list's at InputPath,
// or none — so every process builds only the CSR shards of the machines
// it hosts (§1.1: the input is already distributed, Õ((n+m)/k) per
// machine) and no registry run materialises a global *graph.Graph.
// Input construction therefore happens inside MachineViews, which
// launch charges to Outcome.SetupTime.
package algo

import (
	"fmt"
	"math"

	"kmachine/internal/gen"
	"kmachine/internal/partition"
)

// PartitionSpec is the problem's unmaterialised partition: the registry
// convention seeds the vertex partition at Seed+1 on every substrate.
func (prob Problem) PartitionSpec() partition.Spec {
	return partition.Spec{N: prob.N, K: prob.K, Seed: prob.Seed + 1}
}

// Validate rejects the problems no generator, partition or cluster can
// honour, where outside input (a job request, a command line) enters:
// the model needs k >= 2 machines, vertex IDs are int32, so a larger N
// would wrap silently, a probability outside [0,1] is not one, a
// link carries at least one word per round (0 means the default), a
// checkpoint interval counts supersteps (0 means off), a reset
// probability lies in (0,1) (0 means 0.15), and a summary lists at
// least one item (0 means 5). The generators and
// core.NewCluster keep their panics for callers that skip this check —
// a programmer error.
func (prob Problem) Validate() error {
	if prob.K < 2 {
		return fmt.Errorf("algo: need k >= 2 machines, got %d", prob.K)
	}
	if prob.N < 0 || prob.N > math.MaxInt32 {
		return fmt.Errorf("algo: n=%d out of [0,%d] (vertex IDs are int32)", prob.N, math.MaxInt32)
	}
	if !(prob.EdgeP >= 0 && prob.EdgeP <= 1) { // also rejects NaN
		return fmt.Errorf("algo: edge probability %v out of [0,1]", prob.EdgeP)
	}
	if prob.Bandwidth < 0 {
		return fmt.Errorf("algo: need bandwidth >= 1 word/round, got %d", prob.Bandwidth)
	}
	if prob.Checkpoint.Every < 0 {
		return fmt.Errorf("algo: need a checkpoint every >= 1 supersteps (0 = off), got %d", prob.Checkpoint.Every)
	}
	if prob.Eps != 0 && !(prob.Eps > 0 && prob.Eps < 1) { // also rejects NaN
		return fmt.Errorf("algo: reset probability %v out of (0,1) (0 = 0.15)", prob.Eps)
	}
	if prob.Top < 0 {
		return fmt.Errorf("algo: need top >= 1 summary items (0 = 5), got %d", prob.Top)
	}
	return nil
}

// GraphInput resolves the standard graph input of a problem: the shards
// of G(N, EdgeP) at Seed, or of the edge list at InputPath. A problem
// that fails Validate is an error, not a generator panic; a malformed
// edge list is an error from MachineViews, naming the line, before any
// machine is built.
func GraphInput(prob Problem) (*partition.ShardedInput, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if prob.InputPath != "" {
		return gen.EdgeListInput(prob.InputPath, prob.PartitionSpec(), false), nil
	}
	return gen.GnpInput(prob.PartitionSpec(), prob.EdgeP, prob.Seed), nil
}

// EdgelessInput resolves the input of problems that carry no graph
// (dsort's keys, routing's synthetic workloads). Their machines read
// only Self and K off the view, so the partition covers a K-vertex
// placeholder whatever prob.N is: N here counts keys or probes, and
// hashing that many vertices to homes would be setup nobody reads.
func EdgelessInput(prob Problem) *partition.ShardedInput {
	spec := prob.PartitionSpec()
	spec.N = prob.K
	return &partition.ShardedInput{Spec: spec}
}

// GnpInput is NOT a registry path. It is the materialised reference of
// a generated problem — the whole G(N, EdgeP) built in this process and
// partitioned by NewRVP; InputPath is not consulted — kept under the name
// the frozen benchmark/ calls: verify.go's oracles and micro.go's
// gen.full_build_ms type-assert its result to *partition.VertexPartition.
// The next [benchmark] PR moves them to gen.Gnp + partition.NewRVP and
// deletes this function.
func GnpInput(prob Problem) (partition.Input, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return partition.NewRVP(gen.Gnp(prob.N, prob.EdgeP, prob.Seed), prob.K, prob.PartitionSpec().Seed), nil
}
