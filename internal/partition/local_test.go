package partition_test

import (
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	. "kmachine/internal/partition"
)

// buildLocal replays g's edges through a LocalBuilder hosting machine m
// alone — the generator-independent way to shard an existing graph —
// and returns m's LocalView.
func buildLocal(g *graph.Graph, spec Spec, m core.MachineID, directed bool) *LocalView {
	lb := NewLocalBuilder(spec, []core.MachineID{m}, directed)
	lb.Replay(func(emit func(u, v int32)) {
		g.Edges(func(u, v int32) bool {
			emit(u, v)
			return true
		})
	})
	return lb.Build()[0]
}

// TestGraphBuiltViewsMatchGraph checks the views a VertexPartition
// builds from a graph against that graph: on every machine, whether its
// shard was built with all k (MachineViews) or alone (View), every View
// accessor must answer what the *graph.Graph and the home function say.
// The identity row is the congested clique's Spec mode on a directed
// graph.
func TestGraphBuiltViewsMatchGraph(t *testing.T) {
	const k, seed = 6, 77
	rvp := func(v int32) core.MachineID { return Home(seed, v, k) }
	for _, tc := range []struct {
		name string
		p    *VertexPartition
		home func(v int32) core.MachineID
	}{
		{"gnp", NewRVP(gen.Gnp(300, 0.04, 5), k, seed), rvp},
		{"directed-gnp", NewRVP(gen.DirectedGnp(150, 0.05, 9), k, seed), rvp},
		{"star", NewRVP(gen.Star(200), k, seed), rvp},
		{"identity-directed-cycle", NewIdentity(gen.DirectedCycle(40)), func(v int32) core.MachineID { return core.MachineID(v) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, g := tc.p, tc.p.G
			all, err := p.MachineViews(AllMachines(p.K))
			if err != nil {
				t.Fatal(err)
			}
			for m := core.MachineID(0); int(m) < p.K; m++ {
				var want []int32
				for v := int32(0); int(v) < g.N(); v++ {
					if tc.home(v) == m {
						want = append(want, v)
					}
				}
				for _, lv := range []View{all[m], p.View(m)} {
					if !slices.Equal(lv.Locals(), want) {
						t.Fatalf("machine %d: Locals %v, want %v", m, lv.Locals(), want)
					}
					if lv.Self() != m || lv.K() != p.K || lv.N() != g.N() {
						t.Fatalf("machine %d: identity accessors self=%d k=%d n=%d", m, lv.Self(), lv.K(), lv.N())
					}
					for _, u := range lv.Locals() {
						if !slices.Equal(lv.OutAdj(u), g.Adj(int(u))) {
							t.Fatalf("machine %d: OutAdj(%d): view %v, graph %v", m, u, lv.OutAdj(u), g.Adj(int(u)))
						}
						if !slices.Equal(lv.InAdj(u), g.InAdj(int(u))) {
							t.Fatalf("machine %d: InAdj(%d): view %v, graph %v", m, u, lv.InAdj(u), g.InAdj(int(u)))
						}
						if lv.Degree(u) != g.Degree(int(u)) {
							t.Fatalf("machine %d: Degree(%d): view %d, graph %d", m, u, lv.Degree(u), g.Degree(int(u)))
						}
					}
					for v := int32(0); int(v) < g.N(); v++ {
						if lv.HomeOf(v) != tc.home(v) {
							t.Fatalf("HomeOf(%d): view %d, want %d", v, lv.HomeOf(v), tc.home(v))
						}
						if lv.IsLocal(v) != (tc.home(v) == m) {
							t.Fatalf("machine %d: IsLocal(%d) = %v, home %d", m, v, lv.IsLocal(v), tc.home(v))
						}
					}
					// Membership is the home function, which is defined for
					// any ID; IDs outside [0, N) are nobody's.
					for _, v := range []int32{-1, int32(g.N())} {
						if lv.IsLocal(v) {
							t.Fatalf("machine %d: IsLocal(%d) = true for an ID outside [0,%d)", m, v, g.N())
						}
					}
				}
			}
		})
	}
}

func TestLocalViewGuardsNonLocalAccess(t *testing.T) {
	g := gen.Path(100)
	spec := Spec{N: 100, K: 4, Seed: 5}
	lv := buildLocal(g, spec, 0, false)
	var foreign int32 = -1
	for u := int32(0); u < 100; u++ {
		if spec.HomeOf(u) != 0 {
			foreign = u
			break
		}
	}
	if foreign < 0 {
		t.Skip("degenerate partition")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("LocalView.OutAdj on a foreign vertex did not panic")
		}
		if !strings.Contains(r.(string), "illegally accessed") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	lv.OutAdj(foreign)
}

func TestSpecAgreesWithNewRVP(t *testing.T) {
	g := gen.Gnp(400, 0.02, 3)
	const k, seed = 8, 91
	p := NewRVP(g, k, seed)
	spec := Spec{N: 400, K: k, Seed: seed}
	for v := int32(0); v < 400; v++ {
		if p.Home(v) != spec.HomeOf(v) {
			t.Fatalf("Home(%d): materialised %d, spec %d", v, p.Home(v), spec.HomeOf(v))
		}
	}
	for m := core.MachineID(0); int(m) < k; m++ {
		if !slices.Equal(p.Locals(m), spec.Locals(m)) {
			t.Fatalf("Locals(%d) differ between materialised partition and spec", m)
		}
	}
}

func TestShardedInputWrapsBuildErrors(t *testing.T) {
	in := &ShardedInput{
		Spec: Spec{N: 10, K: 2, Seed: 1},
		BuildShards: func(hosted []core.MachineID) ([]*LocalView, error) {
			return nil, errBoom
		},
	}
	if in.NumMachines() != 2 {
		t.Fatalf("NumMachines = %d", in.NumMachines())
	}
	_, err := in.MachineView(1)
	if err == nil || !strings.Contains(err.Error(), "shards [1]") {
		t.Fatalf("MachineView error %v does not attribute the machine", err)
	}
}

var errBoom = stubErr("boom")

type stubErr string

func (e stubErr) Error() string { return string(e) }
