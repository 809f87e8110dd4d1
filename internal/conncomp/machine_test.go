package conncomp

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"kmachine/internal/algo"
	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// TestViewsAgreeOnEdgeCases runs every input shape over shards built
// two ways — graph-built, replayed from a materialised graph's edges by
// a VertexPartition, and stream-built, as the registry builds them
// (algo.GraphInput, from the generator or from an edge-list file) — at
// k values that leave some machines with no locals or no cut arcs.
// Labels and component counts must match the sequential oracle, and
// Stats must not depend on how the shards were built. An input with no
// edges has nothing to send: its run halts at superstep 0 and costs
// nothing. Phases, which the output hash folds, is pinned per k at the
// propagation length that the two-superstep flagged protocol counted.
func TestViewsAgreeOnEdgeCases(t *testing.T) {
	pairs := graph.NewBuilder(10, false) // 3 pairs + 4 singletons
	for _, e := range [][2]int{{0, 9}, {2, 3}, {5, 7}} {
		pairs.AddEdge(e[0], e[1])
	}
	const samplePath = "../../testdata/sample_edges.txt"
	ks := []int{2, 8, 27}
	inputs := []struct {
		name   string
		g      *graph.Graph
		edgeP  float64 // > 0: the registry generates G(n, edgeP) itself
		file   string  // else the registry reads this edge list
		phases []int   // Result.Phases at each of ks
	}{
		{name: "path", g: gen.Path(20), phases: []int{12, 17, 20}},
		{name: "path3", g: gen.Path(3), phases: []int{2, 3, 3}},
		{name: "cycle", g: gen.Cycle(60), phases: []int{18, 26, 29}},
		{name: "star", g: gen.Star(40), phases: []int{2, 2, 2}},
		{name: "isolated+pairs", g: pairs.Build(), phases: []int{2, 2, 2}},
		{name: "edgeless", g: graph.NewBuilder(50, false).Build(), phases: []int{1, 1, 1}},
		{name: "gnp", g: gen.Gnp(300, 0.004, 5), edgeP: 0.004, phases: []int{7, 13, 12}},
		{name: "sample", g: readEdgeList(t, samplePath, 300), file: samplePath, phases: []int{3, 4, 4}},
	}
	for _, in := range inputs {
		if in.edgeP == 0 && in.file == "" {
			in.file = writeEdgeList(t, in.g)
		}
		want := trueComponents(in.g)
		roots := 0
		for v, l := range want {
			if l == int32(v) {
				roots++
			}
		}
		for ki, k := range ks {
			prob := algo.Problem{N: in.g.N(), EdgeP: in.edgeP, K: k, Seed: 5, InputPath: in.file}
			sharded, err := algo.GraphInput(prob)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{K: k, Bandwidth: core.DefaultBandwidth(prob.N), Seed: prob.Seed + 2}
			var stats [2]*core.Stats
			for i, input := range []partition.Input{partition.NewRVP(in.g, k, prob.PartitionSpec().Seed), sharded} {
				res, st, err := algo.Run(Descriptor(prob.N), input, cfg)
				if err != nil {
					t.Fatalf("%s k=%d view %d: %v", in.name, k, i, err)
				}
				if !slices.Equal(res.Label, want) || res.Components != roots {
					t.Errorf("%s k=%d view %d: %d components, labels %v; want %d, %v",
						in.name, k, i, res.Components, res.Label, roots, want)
				}
				if res.Phases != in.phases[ki] {
					t.Errorf("%s k=%d view %d: %d phases, want %d", in.name, k, i, res.Phases, in.phases[ki])
				}
				stats[i] = st
			}
			if in.g.M() == 0 && (stats[0].Words != 0 || stats[0].Rounds != 0) {
				t.Errorf("%s k=%d: %d words in %d rounds, want 0 and 0", in.name, k, stats[0].Words, stats[0].Rounds)
			}
			if !reflect.DeepEqual(stats[0], stats[1]) {
				t.Errorf("%s k=%d: graph-built stats %+v, stream-built stats %+v", in.name, k, stats[0], stats[1])
			}
		}
	}
}

func writeEdgeList(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readEdgeList(t *testing.T, path string, n int) *graph.Graph {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := graph.NewBuilder(n, false)
	if err := gen.ScanEdgeList(bufio.NewReader(f), n, func(u, v int32) { b.AddEdge(int(u), int(v)) }); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// TestStepDoesNotAllocate fences the per-superstep label send: once
// its out buffer has grown, a Step on a machine mid-run (here machine 0
// of a G(n,p) cluster exchanged by hand for three supersteps) that sends
// every ghost's label allocates nothing — no candidate table, no sorted
// key list.
func TestStepDoesNotAllocate(t *testing.T) {
	const n, k = 4000, 8
	spec := partition.Spec{N: n, K: k, Seed: 3}
	shards, err := gen.GnpInput(spec, 2.0/n, 7).MachineViews(partition.AllMachines(k))
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*ccMachine, k)
	ctxs := make([]core.StepContext, k)
	for i, view := range shards {
		ms[i] = newCCMachine(view)
		ctxs[i] = core.StepContext{Self: core.MachineID(i), K: k, RNG: rng.NewStream(9, uint64(i))}
	}
	inbox := make([][]core.Envelope[cmsg], k)
	const fenced = 3
	for s := 0; s < fenced; s++ {
		next := make([][]core.Envelope[cmsg], k)
		for i, m := range ms {
			ctxs[i].Superstep = s
			out, _ := m.Step(&ctxs[i], inbox[i])
			for _, e := range out {
				next[e.To] = append(next[e.To], e)
			}
		}
		inbox = next
	}
	m, ctx := ms[0], &ctxs[0]
	ctx.Superstep = fenced
	step := func() {
		for g := range m.sent {
			m.sent[g] = math.MaxInt32 // every label falls: the Step sends them all
		}
		if out, done := m.Step(ctx, inbox[0]); done || len(out) != len(m.ghosts) {
			t.Fatalf("Step sent %d envelopes for %d ghosts, done=%v", len(out), len(m.ghosts), done)
		}
	}
	step() // grows the recycled out buffer
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("Step allocates %.0f times, want 0", allocs)
	}
}
