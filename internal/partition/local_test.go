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

// TestLocalViewMatchesGraphView is the interface-parity property: on
// the same graph, partition seed, and machine, every View accessor must
// answer identically whether backed by the materialised graph
// (GraphView) or by the per-machine CSR shard (LocalView).
func TestLocalViewMatchesGraphView(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
		g        *graph.Graph
	}{
		{"gnp", false, gen.Gnp(300, 0.04, 5)},
		{"directed-gnp", true, gen.DirectedGnp(150, 0.05, 9)},
		{"star", false, gen.Star(200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k, seed = 6, 77
			p := NewRVP(tc.g, k, seed)
			spec := Spec{N: tc.g.N(), K: k, Seed: seed}
			for m := core.MachineID(0); int(m) < k; m++ {
				gv := p.View(m)
				lv := buildLocal(tc.g, spec, m, tc.directed)
				if !slices.Equal(gv.Locals(), lv.Locals()) {
					t.Fatalf("machine %d: Locals differ", m)
				}
				if gv.Self() != lv.Self() || gv.K() != lv.K() || gv.N() != lv.N() {
					t.Fatalf("machine %d: identity accessors differ", m)
				}
				for _, u := range gv.Locals() {
					if !slices.Equal(gv.OutAdj(u), lv.OutAdj(u)) {
						t.Fatalf("machine %d: OutAdj(%d): graph %v, local %v", m, u, gv.OutAdj(u), lv.OutAdj(u))
					}
					if !slices.Equal(gv.InAdj(u), lv.InAdj(u)) {
						t.Fatalf("machine %d: InAdj(%d): graph %v, local %v", m, u, gv.InAdj(u), lv.InAdj(u))
					}
					if gv.Degree(u) != lv.Degree(u) {
						t.Fatalf("machine %d: Degree(%d): graph %d, local %d", m, u, gv.Degree(u), lv.Degree(u))
					}
				}
				for v := int32(0); int(v) < tc.g.N(); v += 17 {
					if gv.HomeOf(v) != lv.HomeOf(v) {
						t.Fatalf("HomeOf(%d): graph %d, local %d", v, gv.HomeOf(v), lv.HomeOf(v))
					}
					if gv.IsLocal(v) != lv.IsLocal(v) {
						t.Fatalf("IsLocal(%d): graph %v, local %v", v, gv.IsLocal(v), lv.IsLocal(v))
					}
				}
				// Membership is the hash, which is defined for any ID; IDs
				// outside [0, N) are nobody's.
				for _, v := range []int32{-1, int32(tc.g.N())} {
					if lv.IsLocal(v) {
						t.Fatalf("machine %d: IsLocal(%d) = true for an ID outside [0,%d)", m, v, tc.g.N())
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
