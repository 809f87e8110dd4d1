package conncomp

import (
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/routing"
)

// sequential ground truth by union-find.
func trueComponents(g *graph.Graph) []int32 {
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	g.Edges(func(u, v int32) bool {
		ru, rv := find(u), find(v)
		if ru != rv {
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
		return true
	})
	labels := make([]int32, g.N())
	// Minimum-ID representative: find() with min-union already yields it.
	for v := range labels {
		labels[v] = find(int32(v))
	}
	return labels
}

func runCC(t *testing.T, g *graph.Graph, k int, seed uint64) *Result {
	t.Helper()
	p := partition.NewRVP(g, k, seed)
	res, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(g.N()), Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkLabels(t *testing.T, g *graph.Graph, res *Result) {
	t.Helper()
	want := trueComponents(g)
	for v := range want {
		if res.Label[v] != want[v] {
			t.Fatalf("vertex %d labelled %d, want %d", v, res.Label[v], want[v])
		}
	}
}

func TestConnectedGnp(t *testing.T) {
	g := gen.Gnp(500, 0.02, 3) // far above the connectivity threshold
	res := runCC(t, g, 8, 5)
	checkLabels(t, g, res)
	if res.Components != 1 {
		t.Errorf("components = %d, want 1", res.Components)
	}
}

func TestManyComponents(t *testing.T) {
	// Disjoint triangles: 40 components.
	g := gen.PlantedTriangles(40, 0, 7)
	res := runCC(t, g, 8, 9)
	checkLabels(t, g, res)
	if res.Components != 40 {
		t.Errorf("components = %d, want 40", res.Components)
	}
}

func TestIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(10, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	res := runCC(t, g, 4, 11)
	checkLabels(t, g, res)
	if res.Components != 8 {
		t.Errorf("components = %d, want 8 (2 pairs + 6 singletons)", res.Components)
	}
}

func TestPathGraph(t *testing.T) {
	// Worst case for label propagation diameter; still must be exact.
	g := gen.Path(120)
	res := runCC(t, g, 4, 13)
	checkLabels(t, g, res)
	if res.Components != 1 {
		t.Errorf("path components = %d, want 1", res.Components)
	}
}

func TestStarAndCycle(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"star":  gen.Star(200),
		"cycle": gen.Cycle(200),
	} {
		res := runCC(t, g, 8, 17)
		checkLabels(t, g, res)
		if res.Components != 1 {
			t.Errorf("%s components = %d, want 1", name, res.Components)
		}
	}
}

func TestPhasesLogarithmicOnGnp(t *testing.T) {
	// Above the connectivity threshold the supergraph diameter is
	// O(log n) whp, so phases should be small.
	g := gen.Gnp(2000, 0.006, 19)
	res := runCC(t, g, 16, 23)
	checkLabels(t, g, res)
	if res.Phases > 30 {
		t.Errorf("took %d phases on G(n,p); expected O(log n)", res.Phases)
	}
}

func TestRoundsImproveWithK(t *testing.T) {
	g := gen.Gnp(3000, 0.004, 29)
	r4 := runCC(t, g, 4, 31)
	r16 := runCC(t, g, 16, 31)
	checkLabels(t, g, r4)
	checkLabels(t, g, r16)
	if r16.Stats.Rounds >= r4.Stats.Rounds {
		t.Errorf("rounds did not improve with k: k=4 -> %d, k=16 -> %d",
			r4.Stats.Rounds, r16.Stats.Rounds)
	}
}

func TestDeterministic(t *testing.T) {
	g := gen.Gnp(300, 0.02, 37)
	a := runCC(t, g, 8, 41)
	b := runCC(t, g, 8, 41)
	if a.Stats.Rounds != b.Stats.Rounds || a.Components != b.Components {
		t.Error("identical runs disagree")
	}
}

func TestRejectsMismatchedK(t *testing.T) {
	g := gen.Path(10)
	p := partition.NewRVP(g, 4, 1)
	if _, err := Run(p, core.Config{K: 8, Bandwidth: 4, Seed: 1}); err == nil {
		t.Error("mismatched k accepted")
	}
}

// TestLabelsSpreadOverTheLinks fences the direct label path. The random
// vertex partition hashes each vertex to a home independently of the
// graph, so a ghost of machine i — a neighbour homed elsewhere — is
// homed uniformly at one of the other k−1 machines, independently of
// the other ghosts. At most one label per ghost per superstep goes to
// that home, so a superstep's labels from i to j are at most i's ghosts
// homed at j, which number Binomial(|ghosts_i|, 1/(k−1)). LinkShare(x, k−1) is that binomial's mean plus four standard
// deviations, and a label is 2 words, so no link of any superstep
// carries more than 2·LinkShare(max_i |ghosts_i|, k−1) words whp,
// whatever the graph, a star's hub included, with no relay.
func TestLabelsSpreadOverTheLinks(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.Gnp(3000, 8.0/3000, 43)},
		{"star", gen.Star(2000)},
		{"path", gen.Path(600)},
	} {
		for _, k := range []int{4, 8, 27} {
			p := partition.NewRVP(in.g, k, 47)
			views, err := p.MachineViews(partition.AllMachines(k))
			if err != nil {
				t.Fatal(err)
			}
			maxGhosts := 0
			for _, view := range views {
				maxGhosts = max(maxGhosts, len(newCCMachine(view).ghosts))
			}
			bound := 2 * int64(routing.LinkShare(maxGhosts, k-1))
			res, err := Run(p, core.Config{K: k, Bandwidth: core.DefaultBandwidth(in.g.N()), Seed: 53})
			if err != nil {
				t.Fatal(err)
			}
			checkLabels(t, in.g, res)
			for s := range res.Stats.PerSuperstep {
				if w := res.Stats.PerSuperstep[s].MaxLinkWords; w > bound {
					t.Errorf("%s k=%d: superstep %d loads a link with %d words, above 2·LinkShare(%d, %d) = %d",
						in.name, k, s, w, maxGhosts, k-1, bound)
					break
				}
			}
		}
	}
}
