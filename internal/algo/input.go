// Problem-input resolution: the shared helpers every Spec.Build uses to
// honour Problem.Sharded and Problem.InputPath, plus the timing wrapper
// that charges input construction to Outcome.SetupTime wherever it
// happens (Spec.Build for materialised inputs, MachineViews for sharded
// ones).
package algo

import (
	"fmt"
	"math"
	"time"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
)

// PartitionSpec is the problem's unmaterialised partition: the registry
// convention seeds the vertex partition at Seed+1 on every substrate.
func (prob Problem) PartitionSpec() partition.Spec {
	return partition.Spec{N: prob.N, K: prob.K, Seed: prob.Seed + 1}
}

// Validate rejects the problems no generator, partition or cluster can
// honour, where outside input (a job request, a command line) enters:
// vertex IDs are int32, so a larger N would wrap silently, a
// probability outside [0,1] is not one, and a link carries at least one
// word per round (0 means the default). The generators and
// core.NewCluster keep their panics for callers that skip this check —
// a programmer error.
func (prob Problem) Validate() error {
	if prob.N < 0 || prob.N > math.MaxInt32 {
		return fmt.Errorf("algo: n=%d out of [0,%d] (vertex IDs are int32)", prob.N, math.MaxInt32)
	}
	if !(prob.EdgeP >= 0 && prob.EdgeP <= 1) { // also rejects NaN
		return fmt.Errorf("algo: edge probability %v out of [0,1]", prob.EdgeP)
	}
	if prob.Bandwidth < 0 {
		return fmt.Errorf("algo: need bandwidth >= 1 word/round, got %d", prob.Bandwidth)
	}
	return nil
}

// GnpInput resolves the standard graph input of a problem — G(N, EdgeP)
// at Seed, or the edge list at InputPath — as a materialised
// VertexPartition or, when prob.Sharded, a lazy shard input. All four
// paths produce bit-identical adjacency for each machine. A problem
// that fails Validate is an error, not a generator panic.
func GnpInput(prob Problem) (partition.Input, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	spec := prob.PartitionSpec()
	if prob.InputPath != "" {
		if prob.Sharded {
			return gen.EdgeListInput(prob.InputPath, spec, false), nil
		}
		g, err := gen.ReadEdgeListGraph(prob.InputPath, prob.N, false)
		if err != nil {
			return nil, err
		}
		return partition.NewRVP(g, prob.K, spec.Seed), nil
	}
	if prob.Sharded {
		return gen.GnpInput(spec, prob.EdgeP, prob.Seed), nil
	}
	return partition.NewRVP(gen.Gnp(prob.N, prob.EdgeP, prob.Seed), prob.K, spec.Seed), nil
}

// EdgelessInput resolves the input of problems that carry no graph
// (dsort's keys, routing's synthetic workloads). Their machines read
// only Self and K off the view, so the partition covers a K-vertex
// placeholder whatever prob.N is: N here counts keys or probes, and
// hashing that many vertices to homes would be setup nobody reads.
func EdgelessInput(prob Problem) partition.Input {
	spec := prob.PartitionSpec()
	spec.N = prob.K
	if prob.Sharded {
		return gen.EdgelessInput(spec)
	}
	return partition.NewRVP(graph.NewBuilder(spec.N, false).Build(), spec.K, spec.Seed)
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
