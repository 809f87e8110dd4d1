package conncomp

import (
	"bufio"
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
// Stats must not depend on how the shards were built.
func TestViewsAgreeOnEdgeCases(t *testing.T) {
	pairs := graph.NewBuilder(10, false) // 3 pairs + 4 singletons
	for _, e := range [][2]int{{0, 9}, {2, 3}, {5, 7}} {
		pairs.AddEdge(e[0], e[1])
	}
	const samplePath = "../../testdata/sample_edges.txt"
	inputs := []struct {
		name  string
		g     *graph.Graph
		edgeP float64 // > 0: the registry generates G(n, edgeP) itself
		file  string  // else the registry reads this edge list
	}{
		{name: "path", g: gen.Path(20)},
		{name: "cycle", g: gen.Cycle(60)},
		{name: "star", g: gen.Star(40)},
		{name: "isolated+pairs", g: pairs.Build()},
		{name: "gnp", g: gen.Gnp(300, 0.004, 5), edgeP: 0.004},
		{name: "sample", g: readEdgeList(t, samplePath, 300), file: samplePath},
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
		for _, k := range []int{2, 8, 27} {
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
				stats[i] = st
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

// TestPhaseStartDoesNotAllocate fences the per-phase label send: once
// its out buffer has grown, a phase-start Step on a machine mid-run
// (here machine 0 of a G(n,p) cluster exchanged by hand for two phases)
// allocates nothing — no candidate table, no sorted key list.
func TestPhaseStartDoesNotAllocate(t *testing.T) {
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
	inbox := make([][]core.Envelope[wire], k)
	const phaseStart = 6
	for s := 0; s < phaseStart; s++ {
		next := make([][]core.Envelope[wire], k)
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
	ctx.Superstep = phaseStart
	step := func() {
		m.flagsChanged = true // some peer changed: the phase runs
		if out, done := m.Step(ctx, inbox[0]); done || len(out) == 0 {
			t.Fatalf("phase start sent %d envelopes, done=%v", len(out), done)
		}
	}
	step() // grows the recycled out buffer
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("phase-start Step allocates %.0f times, want 0", allocs)
	}
}
