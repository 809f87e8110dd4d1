// Package workloads pins the model ledger of the benchmark's single-run
// problems where tier-1 runs them: each problem at full size, seed 1,
// on the link its workload names, against its {Hash, Rounds, Words,
// Supersteps}. A change that moves a model cost on purpose re-pins the
// row here in its own diff; one that moves it by accident fails here.
// The package holds only this test, so the race run gives it a timeout
// of its own.
package workloads

import (
	"fmt"
	"testing"

	"kmachine/internal/algo"
	_ "kmachine/internal/algo/all"
	"kmachine/internal/transport"
)

// ledger is what a run must return: its output hash and model costs.
type ledger struct {
	Hash          uint64
	Rounds, Words int64
	Supersteps    int
}

func (l ledger) String() string {
	return fmt.Sprintf("{Hash: %#016x, Rounds: %d, Words: %d, Supersteps: %d}", l.Hash, l.Rounds, l.Words, l.Supersteps)
}

// on names the runner a problem goes through, as its workload does.
type on int

const (
	onTCP   on = iota // Entry.Run(prob, transport.TCP)
	onInMem           // Entry.Run(prob, transport.InMem)
	onNode            // Entry.RunNodeLocal(prob)
)

var goldens = []struct {
	workload, algo string
	on             on
	n, k           int
	edgeP          float64 // 0: the registry default of 10/N
	checkpoint     bool    // a cut after every superstep, in memory
	want           ledger
}{
	{"pagerank-tcp", "pagerank", onTCP, 20000, 8, 0, false,
		ledger{0x200ed5898ac9f13c, 5355, 4190394, 101}},
	{"pagerank-node-ckpt", "pagerank", onNode, 20000, 8, 0, true,
		ledger{0x200ed5898ac9f13c, 5355, 4190394, 101}},
	{"dsort-tcp-bulk", "dsort", onTCP, 2000000, 8, 0, false,
		ledger{0xdedc873363dbb57f, 2525, 2407990, 6}},
	{"triangle-inmem-dense", "triangle", onInMem, 2000, 27, 0.12, false,
		ledger{0x3c962749a0b4c1fc, 651, 3701888, 3}},
	{"conncomp-node-sharded", "conncomp", onNode, 100000, 8, 12.0 / 100000, false,
		ledger{0xddaeea7ba041c7a0, 2646, 2163372, 4}},
}

// TestBenchmarkProblemsPinned runs each problem once and compares its
// output hash and model ledger with the pinned row.
func TestBenchmarkProblemsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five benchmark problems at full size")
	}
	for _, g := range goldens {
		t.Run(g.workload, func(t *testing.T) {
			e, ok := algo.Lookup(g.algo)
			if !ok {
				t.Fatalf("algorithm %q is not registered", g.algo)
			}
			prob := algo.Problem{N: g.n, K: g.k, Seed: 1, EdgeP: g.edgeP}
			if g.checkpoint {
				prob.Checkpoint = algo.CheckpointSpec{Every: 1}
			}
			var out *algo.Outcome
			var err error
			switch g.on {
			case onTCP:
				out, err = e.Run(prob, transport.TCP)
			case onInMem:
				out, err = e.Run(prob, transport.InMem)
			case onNode:
				out, err = e.RunNodeLocal(prob)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := ledger{out.Hash, out.Stats.Rounds, out.Stats.Words, out.Stats.Supersteps}
			if got != g.want {
				t.Errorf("got %v, pinned %v", got, g.want)
			}
		})
	}
}
