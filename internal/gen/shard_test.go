package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kmachine/internal/core"
	"kmachine/internal/graph"
	"kmachine/internal/partition"
	"kmachine/internal/rng"
)

// shardFamily pairs a generator's full constructor with its shard
// constructor so the equivalence property below can sweep every family.
type shardFamily struct {
	name   string
	full   func(n int, seed uint64) *graph.Graph
	shards func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView
}

func shardFamilies() []shardFamily {
	return []shardFamily{
		{"gnp",
			func(n int, seed uint64) *graph.Graph { return Gnp(n, 0.06, seed) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return GnpShards(ps, 0.06, seed, hosted)
			}},
		{"directed-gnp",
			func(n int, seed uint64) *graph.Graph { return DirectedGnp(n, 0.04, seed) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return DirectedGnpShards(ps, 0.04, seed, hosted)
			}},
		{"gnm",
			func(n int, seed uint64) *graph.Graph { return Gnm(n, 3*n, seed) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return GnmShards(ps, 3*ps.N, seed, hosted)
			}},
		{"star",
			func(n int, seed uint64) *graph.Graph { return Star(n) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return StarShards(ps, hosted)
			}},
		{"path",
			func(n int, seed uint64) *graph.Graph { return Path(n) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return PathShards(ps, hosted)
			}},
		{"cycle",
			func(n int, seed uint64) *graph.Graph { return Cycle(n) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return CycleShards(ps, hosted)
			}},
		{"pref-attach",
			func(n int, seed uint64) *graph.Graph { return PreferentialAttachment(n, 3, seed) },
			func(ps partition.Spec, seed uint64, hosted []core.MachineID) []*partition.LocalView {
				return PreferentialAttachmentShards(ps, 3, seed, hosted)
			}},
	}
}

// hostedSubset draws a non-empty subset of the k machines in random
// order: what one process of a multi-process run might host.
func hostedSubset(r *rng.RNG, k int) []core.MachineID {
	all := partition.AllMachines(k)
	rng.Shuffle(r, all)
	return all[:1+r.Intn(k)]
}

// checkShardSets is the hosted-set equivalence property for one
// (source, partition): the k one-machine shards are, row for row, the
// rows of the full graph and cover every vertex once; and the shards a
// process hosting a random subset builds from ONE pass over the source
// are those same one-machine shards, in the order asked for.
func checkShardSets(t *testing.T, label string, full *graph.Graph, ps partition.Spec, seed uint64,
	shards func(hosted []core.MachineID) []*partition.LocalView) {
	t.Helper()
	single := make([]*partition.LocalView, ps.K)
	covered := 0
	for m := range single {
		lv := shards([]core.MachineID{core.MachineID(m)})[0]
		if lv.Self() != core.MachineID(m) || lv.K() != ps.K || lv.N() != ps.N {
			t.Fatalf("%s: shard %d identity (self=%d k=%d n=%d)", label, m, lv.Self(), lv.K(), lv.N())
		}
		if want := ps.Locals(core.MachineID(m)); !slices.Equal(lv.Locals(), want) {
			t.Fatalf("%s machine %d: Locals = %v, want %v", label, m, lv.Locals(), want)
		}
		for _, u := range lv.Locals() {
			if got, want := lv.OutAdj(u), full.Adj(int(u)); !slices.Equal(got, want) {
				t.Fatalf("%s machine %d: OutAdj(%d) = %v, full graph has %v", label, m, u, got, want)
			}
			if got, want := lv.InAdj(u), full.InAdj(int(u)); !slices.Equal(got, want) {
				t.Fatalf("%s machine %d: InAdj(%d) = %v, full graph has %v", label, m, u, got, want)
			}
			if lv.Degree(u) != full.Degree(int(u)) {
				t.Fatalf("%s machine %d: Degree(%d) = %d, want %d", label, m, u, lv.Degree(u), full.Degree(int(u)))
			}
		}
		covered += len(lv.Locals())
		single[m] = lv
	}
	if covered != ps.N {
		t.Fatalf("%s: shards cover %d vertices, want %d", label, covered, ps.N)
	}

	hosted := hostedSubset(rng.New(seed^uint64(ps.K)), ps.K)
	set := shards(hosted)
	if len(set) != len(hosted) {
		t.Fatalf("%s hosted %v: %d shards, want %d", label, hosted, len(set), len(hosted))
	}
	for i, m := range hosted {
		lv, one := set[i], single[m]
		if lv.Self() != m || !slices.Equal(lv.Locals(), one.Locals()) || lv.LocalArcs() != one.LocalArcs() {
			t.Fatalf("%s hosted %v: shard %d is machine %d with %d locals, %d arcs; alone it has %d locals, %d arcs",
				label, hosted, i, lv.Self(), len(lv.Locals()), lv.LocalArcs(), len(one.Locals()), one.LocalArcs())
		}
		for _, u := range lv.Locals() {
			if !slices.Equal(lv.OutAdj(u), one.OutAdj(u)) || !slices.Equal(lv.InAdj(u), one.InAdj(u)) {
				t.Fatalf("%s hosted %v machine %d: row %d differs from the one-machine shard", label, hosted, m, u)
			}
		}
	}
}

// TestShardFullEquivalence is the tentpole property: for every
// generator family, the shards of one replay for a hosted set equal the
// one-machine shards equal the rows of the full materialisation —
// row for row, neighbour for neighbour — across machine counts and
// seeds. This is what makes the per-row stream the canonical definition
// rather than a parallel implementation that could drift.
func TestShardFullEquivalence(t *testing.T) {
	const n = 150
	for _, fam := range shardFamilies() {
		for _, k := range []int{1, 2, 3, 8} {
			for _, seed := range []uint64{1, 42} {
				ps := partition.Spec{N: n, K: k, Seed: seed + 1}
				checkShardSets(t, fmt.Sprintf("%s k=%d seed=%d", fam.name, k, seed), fam.full(n, seed), ps, seed,
					func(hosted []core.MachineID) []*partition.LocalView { return fam.shards(ps, seed, hosted) })
			}
		}
	}
}

// TestShardEdgeListEquivalence drives the arm no generator takes: an
// edge-list file whose lines are shuffled, reversed (undirected only —
// a reversed arc is another arc), repeated, and salted with self-loops,
// so every row arrives out of order and with repeats and must be sorted
// and deduped on its own. The ingested shards must equal the rows of
// the graph the same file fully materialises to.
func TestShardEdgeListEquivalence(t *testing.T) {
	const n = 150
	for _, directed := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 8} {
			seed := uint64(7 + k)
			r := rng.New(seed)
			var g *graph.Graph
			if directed {
				g = DirectedGnp(n, 0.05, seed)
			} else {
				g = Gnp(n, 0.07, seed)
			}
			lines := g.EdgeList()
			for i := 0; i < 40; i++ {
				lines = append(lines, lines[r.Intn(len(lines))]) // duplicate
				v := int32(r.Intn(n))
				lines = append(lines, [2]int32{v, v}) // self-loop
			}
			rng.Shuffle(r, lines)
			var text strings.Builder
			for _, e := range lines {
				if !directed && r.Intn(2) == 0 {
					e[0], e[1] = e[1], e[0]
				}
				fmt.Fprintf(&text, "%d %d\n", e[0], e[1])
			}
			path := filepath.Join(t.TempDir(), "edges.txt")
			if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			full, err := readEdgeListGraph(path, n, directed)
			if err != nil {
				t.Fatal(err)
			}
			if full.M() != g.M() {
				t.Fatalf("directed=%v k=%d: messy file materialises to %d edges, the clean graph has %d", directed, k, full.M(), g.M())
			}
			ps := partition.Spec{N: n, K: k, Seed: seed + 1}
			checkShardSets(t, fmt.Sprintf("edge-list directed=%v k=%d", directed, k), full, ps, seed,
				func(hosted []core.MachineID) []*partition.LocalView {
					views, err := IngestEdgeList(path, ps, directed, hosted)
					if err != nil {
						t.Fatal(err)
					}
					return views
				})
		}
	}
}

// TestGnpRowIsPureFunctionOfSeedAndRow pins the per-row formulation
// itself: a row's neighbours must not depend on which other rows were
// generated around it.
func TestGnpRowIsPureFunctionOfSeedAndRow(t *testing.T) {
	const n, p, seed = 100, 0.1, 7
	var a, b []int32
	gnpRow(n, p, seed, 40, func(v int32) { a = append(a, v) })
	for u := int32(0); u < int32(n)-1; u++ {
		u := u
		gnpRow(n, p, seed, u, func(v int32) {
			if u == 40 {
				b = append(b, v)
			}
		})
	}
	if !slices.Equal(a, b) {
		t.Fatalf("row 40 alone = %v, row 40 within full sweep = %v", a, b)
	}
}

// TestPreferentialAttachmentRunTwice is the regression for the map
// iteration order bug: two generations at one seed must agree edge for
// edge (the old code appended each vertex's chosen endpoints in Go map
// order, perturbing every later degree-proportional draw).
func TestPreferentialAttachmentRunTwice(t *testing.T) {
	for run := 0; run < 3; run++ {
		g1 := PreferentialAttachment(500, 3, 11)
		g2 := PreferentialAttachment(500, 3, 11)
		e1, e2 := g1.EdgeList(), g2.EdgeList()
		if !slices.Equal(flattenPairs(e1), flattenPairs(e2)) {
			t.Fatalf("run %d: PreferentialAttachment(500,3,11) differed between two generations", run)
		}
	}
}

func flattenPairs(es [][2]int32) []int32 {
	out := make([]int32, 0, 2*len(es))
	for _, e := range es {
		out = append(out, e[0], e[1])
	}
	return out
}

// TestGnmMatchesDrawOrderReference checks the alloc-light dedupe against
// a straightforward map-based reference of the canonical definition:
// the first m distinct pairs of the seed's candidate sequence.
func TestGnmMatchesDrawOrderReference(t *testing.T) {
	const n, m, seed = 80, 600, 5
	want := make([][2]int32, 0, m)
	seen := map[[2]int32]bool{}
	r := rng.New(seed)
	for len(want) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		pair := [2]int32{u, v}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		want = append(want, pair)
	}
	got := make([][2]int32, 0, m)
	gnmStream(n, m, seed, func(u, v int32) { got = append(got, [2]int32{u, v}) })
	if !slices.Equal(flattenPairs(got), flattenPairs(want)) {
		t.Fatalf("gnmStream disagrees with the map-based reference (got %d pairs, want %d)", len(got), len(want))
	}
}

func TestGnmNearCompleteGraph(t *testing.T) {
	// Coupon-collector regime: m close to C(n,2) forces many top-up
	// rounds.
	const n = 24
	maxM := n * (n - 1) / 2
	g := Gnm(n, maxM-1, 3)
	if g.M() != maxM-1 {
		t.Fatalf("Gnm(%d, %d) produced %d edges", n, maxM-1, g.M())
	}
}

func BenchmarkGnm(b *testing.B) {
	const n = 20000
	const m = 100000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Gnm(n, m, uint64(i)+1)
	}
}

var shardSink []*partition.LocalView

// BenchmarkGnpShard pins the sharded-setup layer at the shape of the
// benchmark's conncomp-node-sharded workload (N=100000, average degree
// 12, k=8), for what a kmnode -id process builds (a set of one) and
// what an in-process cluster builds (all k, still one replay).
func BenchmarkGnpShard(b *testing.B) {
	const n, k = 100000, 8
	ps := partition.Spec{N: n, K: k, Seed: 2}
	for _, arm := range []struct {
		name   string
		hosted []core.MachineID
	}{{"one", partition.AllMachines(k)[:1]}, {"all-k", partition.AllMachines(k)}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shardSink = GnpShards(ps, 12.0/n, 1, arm.hosted)
			}
		})
	}
}

// TestGnpShardAllocsIndependentOfArcs is the allocation fence of the
// shard build: a dozen for the builder and its stream, plus locals,
// offsets, targets and the view per hosted machine — and nothing per
// arc, so a graph ten times denser stays under the same ceiling.
func TestGnpShardAllocsIndependentOfArcs(t *testing.T) {
	const n, k = 20000, 8
	ps := partition.Spec{N: n, K: k, Seed: 2}
	for _, hosted := range [][]core.MachineID{partition.AllMachines(k)[:1], partition.AllMachines(k)} {
		limit := float64(12 + 4*len(hosted))
		for _, deg := range []float64{4, 40} {
			allocs := testing.AllocsPerRun(3, func() { shardSink = GnpShards(ps, deg/n, 1, hosted) })
			if allocs > limit {
				t.Errorf("hosting %d, degree %v: %v allocations per build, want at most %v",
					len(hosted), deg, allocs, limit)
			}
		}
	}
}

// TestGnpShardsSplitTheGraph is the §1.1 input assumption as a count:
// the k shards of G(n, 10/n) together store exactly the full graph's 2m
// adjacency entries, and the largest stores at most 1.25·2m/k of them —
// so every machine sets up from a shard at least 6.4× smaller than the
// graph at k=8, whatever the heap or the collector happens to do.
func TestGnpShardsSplitTheGraph(t *testing.T) {
	const k = 8
	for _, n := range []int{2000, 4000} {
		for _, seed := range []uint64{1, 2, 552} {
			p := 10 / float64(n)
			ps := partition.Spec{N: n, K: k, Seed: seed + 1}
			want := 2 * Gnp(n, p, seed).M()
			sum, most := 0, 0
			for _, lv := range GnpShards(ps, p, seed, partition.AllMachines(k)) {
				sum += lv.LocalArcs()
				most = max(most, lv.LocalArcs())
			}
			if sum != want {
				t.Errorf("n=%d seed=%d: shards store %d arcs, graph has 2m=%d", n, seed, sum, want)
			}
			if limit := 1.25 * float64(want) / k; float64(most) > limit {
				t.Errorf("n=%d seed=%d: largest shard stores %d arcs, want at most 1.25·2m/k = %.0f", n, seed, most, limit)
			}
		}
	}
}
