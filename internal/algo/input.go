// Problem-input resolution: the one path from a registry Problem to
// machine views. Two edge-stream sources — the G(N, EdgeP) generator
// and the edge list at InputPath — feed one partition.LocalBuilder, so
// every process builds only the CSR shards of the machines it hosts
// (§1.1: the input is already distributed, Õ((n+m)/k) per machine) and
// no registry run materialises a global *graph.Graph. Input
// construction therefore happens inside MachineViews, which timedInput
// charges to Outcome.SetupTime.
package algo

import (
	"fmt"
	"math"
	"time"

	"kmachine/internal/core"
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
// link carries at least one word per round (0 means the default), and
// a checkpoint interval counts supersteps (0 means off). The
// generators and core.NewCluster keep their panics for callers that
// skip this check — a programmer error.
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
	return gen.EdgelessInput(spec)
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

// timedInput wraps an Input and accumulates the wall-clock spent
// building views, so the registry can report setup separately from
// supersteps regardless of where the input is actually built.
type timedInput struct {
	in       partition.Input
	viewTime time.Duration
}

func (t *timedInput) NumMachines() int { return t.in.NumMachines() }

func (t *timedInput) MachineViews(hosted []core.MachineID) ([]partition.View, error) {
	t0 := time.Now()
	views, err := t.in.MachineViews(hosted)
	t.viewTime += time.Since(t0)
	return views, err
}

func (t *timedInput) MachineView(m core.MachineID) (partition.View, error) {
	t0 := time.Now()
	v, err := t.in.MachineView(m)
	t.viewTime += time.Since(t0)
	return v, err
}
