package partition_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/gen"
	"kmachine/internal/graph"
	. "kmachine/internal/partition"
)

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
	spec := Spec{N: 100, K: 4, Seed: 5}
	lv := NewRVP(gen.Path(100), spec.K, spec.Seed).View(0)
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

// TestShardedInputWrapsBuildErrors pins the MachineViews contract: a
// replayable stream runs exactly twice per call — count, then fill —
// and a Once stream exactly once, whether the call hosts one machine or
// all k; and a stream that fails is not run again, its error naming the
// hosted set.
func TestShardedInputWrapsBuildErrors(t *testing.T) {
	g := gen.Path(10)
	spec := Spec{N: 10, K: 2, Seed: 1}
	for _, once := range []bool{false, true} {
		runs, fail := 0, false
		in := &ShardedInput{Spec: spec, Once: once, Stream: func(emit func(u, v int32)) error {
			runs++
			g.Edges(func(u, v int32) bool {
				emit(u, v)
				return true
			})
			if fail {
				return errBoom
			}
			return nil
		}}
		if in.NumMachines() != 2 {
			t.Fatalf("NumMachines = %d", in.NumMachines())
		}
		want := 2
		if once {
			want = 1
		}
		for _, hosted := range [][]core.MachineID{{1}, AllMachines(spec.K)} {
			runs, fail = 0, false
			views, err := in.MachineViews(hosted)
			if err != nil {
				t.Fatal(err)
			}
			if runs != want {
				t.Errorf("once=%v hosting %v: the stream ran %d times, want %d", once, hosted, runs, want)
			}
			for _, lv := range views {
				for _, u := range lv.Locals() {
					if !slices.Equal(lv.OutAdj(u), g.Adj(int(u))) {
						t.Fatalf("once=%v hosting %v: OutAdj(%d) = %v, graph %v", once, hosted, u, lv.OutAdj(u), g.Adj(int(u)))
					}
				}
			}

			runs, fail = 0, true
			_, err = in.MachineViews(hosted)
			if say := fmt.Sprintf("shards %v", hosted); !errors.Is(err, errBoom) || !strings.Contains(err.Error(), say) {
				t.Errorf("once=%v hosting %v: error %v, want errBoom saying %q", once, hosted, err, say)
			}
			if runs != 1 {
				t.Errorf("once=%v hosting %v: a failing stream ran %d times, want 1", once, hosted, runs)
			}
		}
	}
}

var errBoom = stubErr("boom")

type stubErr string

func (e stubErr) Error() string { return string(e) }

// TestRowIndexAtEveryShape checks the bucket index at every partition
// shape a run can meet — the RVP at several k, the congested clique's
// identity (k = n), more machines than vertices (empty shards) and the
// degenerate n ∈ {0, 1} — on directed and undirected graphs: every
// local's Row is its position in Locals, and every row accessor meets a
// foreign, negative or out-of-range ID with the "illegally accessed"
// panic, never an index-out-of-range runtime error.
func TestRowIndexAtEveryShape(t *testing.T) {
	for _, directed := range []bool{false, true} {
		gnp := func(n int) *graph.Graph {
			if directed {
				return gen.DirectedGnp(n, min(1, 6/float64(n)), 3)
			}
			return gen.Gnp(n, min(1, 6/float64(n)), 3)
		}
		shapes := []struct {
			name string
			p    *VertexPartition
		}{
			{"rvp-k2", NewRVP(gnp(300), 2, 11)},
			{"rvp-k8", NewRVP(gnp(300), 8, 11)},
			{"rvp-k27", NewRVP(gnp(300), 27, 11)},
			{"identity", NewIdentity(gnp(40))},
			{"n<k", NewRVP(gnp(5), 8, 11)},
			{"n=1", NewRVP(graph.NewBuilder(1, directed).Build(), 3, 11)},
			{"n=0", NewRVP(graph.NewBuilder(0, directed).Build(), 3, 11)},
		}
		for _, sh := range shapes {
			views, err := sh.p.MachineViews(AllMachines(sh.p.K))
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range views {
				name := fmt.Sprintf("%s directed=%v machine %d", sh.name, directed, lv.Self())
				for r, u := range lv.Locals() {
					if got := lv.Row(u); got != int32(r) {
						t.Fatalf("%s: Row(%d) = %d, want %d", name, u, got, r)
					}
				}
				bad := []int32{-1, math.MinInt32, int32(lv.N()), int32(lv.N()) + 1, math.MaxInt32}
				for u := int32(0); int(u) < lv.N(); u++ {
					if !lv.IsLocal(u) {
						bad = append(bad, u)
						break
					}
				}
				for _, u := range bad {
					for op, f := range map[string]func(){
						"Row":    func() { lv.Row(u) },
						"OutAdj": func() { lv.OutAdj(u) },
						"InAdj":  func() { lv.InAdj(u) },
						"Degree": func() { lv.Degree(u) },
					} {
						if msg := panicOf(f); !strings.Contains(msg, "illegally accessed "+op) {
							t.Errorf("%s: %s(%d) panicked with %q, want \"illegally accessed\"", name, op, u, msg)
						}
					}
				}
			}
		}
	}
}

// panicOf runs f and returns its panic value if that is a string, or a
// description of what it was instead.
func panicOf(f func()) (msg string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
			msg = "no panic"
		case string:
			msg = r
		default:
			msg = fmt.Sprintf("%T: %v", r, r)
		}
	}()
	f()
	return
}

var rowSink int32

// BenchmarkLocalViewRow is the row lookup layer alone, at the shape of
// the benchmark's conncomp-node-sharded workload (N=100000, average
// degree 12, k=8): one op is a Row of every local of one shard, visited
// with a large stride so no two lookups in a row share a bucket, and
// ns/row is the cost of one lookup.
func BenchmarkLocalViewRow(b *testing.B) {
	const n, k = 100000, 8
	lv := gen.GnpShard(Spec{N: n, K: k, Seed: 2}, 12.0/n, 1, 3)
	locals := lv.Locals()
	b.ResetTimer()
	for range b.N {
		for i, j := 0, 0; i < len(locals); i++ {
			rowSink = lv.Row(locals[j])
			if j += 7919; j >= len(locals) {
				j -= len(locals)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(locals)), "ns/row")
}
